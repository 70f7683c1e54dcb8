"""Learning-as-a-service: long-lived serving on top of the run layer.

The paper treats each ILP run as a one-shot cluster job.  This package
turns the repository into a *service*: expensive theory **learning** runs
as background jobs over a shared pool of backend slots, while cheap
theory **application** (coverage / prediction queries) is answered from a
registry of already-learned theories — the same decoupling that lets
clustering systems separate an expensive fit from cheap assignment
queries.

Components
----------
:mod:`repro.service.jobs`
    :class:`JobSpec` (a declarative learning request), its durable
    :class:`JobRecord`, and :func:`run_job` — one spec executed to a
    :class:`~repro.run.RunOutcome` exactly as ``repro learn`` would.
:mod:`repro.service.scheduler`
    :class:`JobScheduler` — concurrent execution of many jobs over
    ``slots`` worker threads with priority/FIFO queueing, cancellation
    and checkpoint-based preemption/resume (reusing
    :mod:`repro.fault.checkpoint`).
:mod:`repro.service.registry`
    :class:`TheoryRegistry` — versioned on-disk theory artifacts in the
    compact wire encoding with config-signature and provenance stamps;
    list / get / diff / promote operations.
:mod:`repro.service.query`
    :class:`QueryEngine` — batched coverage/prediction queries against
    registered theories with a per-theory prepared-KB cache;
    bit-identical to one-shot :func:`repro.ilp.coverage.coverage_eval`.
:mod:`repro.service.server`
    :class:`Service` (transport-free request handler) plus the socket
    front door behind ``repro serve``: one request lifecycle, JSON-lines
    or wire frames (:mod:`repro.service.wiremsg`) as the codec.
:mod:`repro.service.client`
    :class:`ServiceClient` — the matching blocking client.

Everything is stdlib-only (threads, sockets, JSON) — no new
dependencies.
"""

from repro.service.jobs import JobRecord, JobSpec, run_job
from repro.service.query import QueryEngine, QueryResult
from repro.service.registry import RegistryError, RegistryRecord, TheoryRegistry
from repro.service.scheduler import JobScheduler, SchedulerError
from repro.service.client import ServiceClient
from repro.service.server import Service, serve

__all__ = [
    "JobSpec",
    "JobRecord",
    "run_job",
    "JobScheduler",
    "SchedulerError",
    "TheoryRegistry",
    "RegistryRecord",
    "RegistryError",
    "QueryEngine",
    "QueryResult",
    "Service",
    "ServiceClient",
    "serve",
]
