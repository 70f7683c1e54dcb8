"""Process abstraction for the simulated cluster.

A simulated node runs a :class:`SimProcess`: its :meth:`SimProcess.run`
method is a *generator* that yields communication/compute syscalls to the
scheduler and is resumed with their results — cooperative multitasking in
virtual time.  The paper's §2.2 model maps directly:

* ``send``      → non-blocking (sender charged marshalling time only);
* ``broadcast`` → non-blocking send to a set of ranks;
* ``receive``   → blocking (virtual clock jumps to message arrival).

Python work done between yields is free in virtual time; processes charge
for it explicitly with :meth:`ProcContext.compute`, passing the engine's
operation delta.  This is what makes a 1-core host able to time an 8-node
cluster faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Syscall", "SendOp", "BcastOp", "RecvOp", "ComputeOp", "ProcContext", "SimProcess"]


class Syscall:
    """Base class for values a process generator yields to the scheduler."""

    __slots__ = ()


@dataclass(frozen=True)
class SendOp(Syscall):
    dst: int
    payload: object
    tag: str


@dataclass(frozen=True)
class BcastOp(Syscall):
    dsts: tuple[int, ...]
    payload: object
    tag: str


@dataclass(frozen=True)
class RecvOp(Syscall):
    """Blocking receive; ``src``/``tag`` of None match anything.

    ``timeout`` (seconds — virtual under the sim backend, wall-clock under
    the real ones) bounds the wait: if no matching message arrives in
    time, the process is resumed with ``None`` instead of a message.  The
    fault-tolerant masters use this as their failure detector; ``None``
    (the default) waits forever, reproducing the original semantics.
    """

    src: Optional[int] = None
    tag: Optional[str] = None
    timeout: Optional[float] = None

    def matches(self, msg) -> bool:
        return (self.src is None or msg.src == self.src) and (
            self.tag is None or msg.tag == self.tag
        )


@dataclass(frozen=True)
class ComputeOp(Syscall):
    ops: int
    label: str = "compute"


class ProcContext:
    """Per-process façade handed to :meth:`SimProcess.run`.

    The one definition of the four syscall constructors (to be
    ``yield``-ed) plus the rank, the pool size and the process's clock.
    The simulator hands each generator a plain ``ProcContext`` reading
    its virtual clock; the real substrates extend it
    (:class:`~repro.backend.base.WallClockContext`) with an ``execute``
    that performs each yielded syscall.
    """

    def __init__(self, rank: int, n_procs: int, clock=None):
        self.rank = rank
        self.n_procs = n_procs
        self._clock = clock

    # -- syscall constructors (yield these) ------------------------------------
    def send(self, dst: int, payload: object, tag: str) -> SendOp:
        return SendOp(dst, payload, tag)

    def bcast(self, payload: object, tag: str, dsts: Optional[Iterable[int]] = None) -> BcastOp:
        """Broadcast to ``dsts`` (default: every other rank)."""
        if dsts is None:
            dsts = [r for r in range(self.n_procs) if r != self.rank]
        return BcastOp(tuple(dsts), payload, tag)

    def recv(
        self,
        src: Optional[int] = None,
        tag: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> RecvOp:
        return RecvOp(src, tag, timeout)

    def compute(self, ops: int, label: str = "compute") -> ComputeOp:
        return ComputeOp(int(ops), label)

    # -- introspection -----------------------------------------------------------
    @property
    def clock(self) -> float:
        """This process's clock, from the ``clock`` callable it was built
        with: virtual seconds under the simulator."""
        return self._clock()


class SimProcess:
    """Base class for simulated cluster node programs."""

    def __init__(self, rank: int):
        self.rank = rank

    def run(self, ctx: ProcContext):  # pragma: no cover - interface
        """Generator body: yield syscalls, receive results."""
        raise NotImplementedError
        yield  # makes this a generator even if not overridden

    def final_state(self):
        """What a substrate that runs ranks in other OS processes ships home
        as this rank's entry of ``BackendRun.procs``: the process itself,
        unless a subclass knows that less is read from it."""
        return self
