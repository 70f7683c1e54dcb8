"""Pluggable execution backends for the parallel strategies.

The master/worker generators in :mod:`repro.parallel` yield syscalls to
whichever :class:`~repro.backend.base.Backend` drives them:

=========  ===============================================  ==============
name       substrate                                        ``seconds``
=========  ===============================================  ==============
``sim``    discrete-event simulator (deterministic)         virtual time
``local``  real ``multiprocessing`` processes over pipes    wall clock
``mpi``    real MPI communicator via mpi4py                 wall clock
=========  ===============================================  ==============

Use :func:`make_backend` to build one by name, or
:func:`resolve_backend` when accepting either a name or a ready instance
(the pattern every ``run_*`` front-end uses).  A backend's options are
its constructor's: the simulated fabric and cost model are set only by
``SimBackend(network=, cost_model=)``.  A backend holds no fault
plan: the plan is an argument of ``Backend.run(procs, fault_plan=...)``,
and all three substrates inject it.
"""

from __future__ import annotations

from typing import Union

from repro.util.lazy import lazy_exports

# Read on first use (see repro.util.lazy): a run loads only the substrate
# it builds.
_EXPORTS = {
    "repro.run": ("BACKEND_NAMES",),
    ".base": (
        "Backend",
        "BackendError",
        "BackendRun",
        "BackendTimeoutError",
        "BackendUnavailableError",
        "drive",
    ),
    ".sim": ("SimBackend",),
    ".local": ("LocalContext", "LocalProcessBackend"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + [
    "make_backend",
    "resolve_backend",
]
__getattr__ = lazy_exports(__name__, _EXPORTS)


def make_backend(name: str, *, record_trace: bool = False) -> Backend:
    """Build a backend by registry name, with its default options.

    A run that needs other options builds the backend itself and passes
    the instance: ``SimBackend(network=, cost_model=)`` for another
    simulated fabric or cost model, ``LocalProcessBackend(timeout=,
    start_method=)`` for the local substrate's.
    """
    if name == "sim":
        from repro.backend.sim import SimBackend

        return SimBackend(record_trace=record_trace)
    if name == "local":
        from repro.backend.local import LocalProcessBackend

        return LocalProcessBackend(record_trace=record_trace)
    if name == "mpi":
        from repro.backend.mpi import MPIBackend

        return MPIBackend(record_trace=record_trace)
    from repro.run import BACKEND_NAMES

    raise ValueError(f"unknown backend {name!r}; known: {BACKEND_NAMES}")


def resolve_backend(backend: Union[Backend, str, None], *, record_trace: bool = False) -> Backend:
    """Accept a Backend instance, a registry name, or None (→ sim).

    A ready instance is used as it is: asking for a trace it does not
    record is a ``ValueError``.
    """
    from repro.backend.base import Backend

    if backend is None:
        backend = "sim"
    if isinstance(backend, Backend):
        if record_trace and not backend.record_trace:
            raise ValueError(
                f"record_trace=True needs a tracing backend: build it with "
                f"{type(backend).__name__}(record_trace=True), or pass its name"
            )
        return backend
    return make_backend(backend, record_trace=record_trace)
