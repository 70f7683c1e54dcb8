"""SimBackend: the discrete-event scheduler behind the backend protocol.

This is the default substrate — deterministic virtual time over the
paper's network/cost models.  One
:class:`~repro.cluster.scheduler.Scheduler` is built per run, and the
run's fault plan goes to it; the scheduler counts the plan's triggers
with the same per-rank :class:`~repro.fault.plan.RankFaults` objects the
wall-clock substrates use.

>>> from repro.cluster.process import SimProcess
>>> class Ping(SimProcess):
...     def run(self, ctx):
...         yield ctx.send(1, "ping", tag="t")
...         msg = yield ctx.recv(src=1)
>>> class Pong(SimProcess):
...     def run(self, ctx):
...         msg = yield ctx.recv(src=0)
...         yield ctx.send(0, "pong", tag="t")
>>> SimBackend().run([Ping(0), Pong(1)]).comm.messages
2
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import Backend, BackendRun
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.network import FAST_ETHERNET, NetworkModel
from repro.cluster.process import SimProcess
from repro.cluster.scheduler import Scheduler
from repro.fault.plan import FaultPlan

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Deterministic simulation: virtual clocks, modelled network."""

    name = "sim"

    def __init__(
        self,
        network: NetworkModel = FAST_ETHERNET,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        record_trace: bool = False,
    ):
        self.network = network
        self.cost_model = cost_model
        self.record_trace = record_trace

    def _run(self, ordered: list[SimProcess], plan: Optional[FaultPlan]) -> BackendRun:
        sched = Scheduler(
            ordered,
            network=self.network,
            cost_model=self.cost_model,
            record_trace=self.record_trace,
            fault_plan=plan,
        )
        makespan = sched.run()
        # Crashed ranks' process objects hold stale pre-crash state (their
        # logical workers were rebuilt elsewhere); per the BackendRun
        # contract they are absent from the returned procs.
        crashed = set(sched.crashed_ranks())
        return BackendRun(
            seconds=makespan,
            comm=sched.stats,
            clocks=[sched.clock_of(p.rank) for p in ordered],
            trace=sched.trace,
            procs=[p for p in ordered if p.rank not in crashed],
            fault_log=sched.fault_log,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimBackend(network={self.network!r})"
