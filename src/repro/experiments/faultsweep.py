"""Fault-injection sweep: recovery overhead & parity across strategies.

For each (strategy, p, scenario) cell the sweep runs the strategy
fault-free and under an injected fault plan, asserts that the learned
theory is **identical** (the self-healing protocol's core guarantee),
and reports the recovery overhead — extra makespan and extra
communication relative to the fault-free run.  This is the experiments
surface behind ``repro faults`` and the ``bench_fault_recovery``
benchmark.

Scenarios (all deterministic, cross-substrate):

* ``crash``          — one worker dies mid-run (processing its 2nd task);
* ``crash_standby``  — same crash, with one idle spare host provisioned;
* ``straggler``      — one worker computes 4x slower (timing only);
* ``supervised``     — fault-tolerance protocol on, nothing injected
  (isolates the protocol's own heartbeat/timeout overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.datasets import make_dataset
from repro.fault.plan import FaultPlan, Straggler, WorkerCrash
from repro.run import run

__all__ = ["FaultSweepRecord", "default_scenarios", "run_fault_sweep", "render_fault_sweep"]

#: each strategy's run options in the sweep: the paper's width for
#: p2mdie, a short batched covpar run, independent at "nolimit".
_OPTIONS = {
    "p2mdie": dict(width=10),
    "covpar": dict(batch_size=4, max_epochs=8),
    "independent": dict(width=None),
}
STRATEGIES = tuple(_OPTIONS)


@dataclass(frozen=True)
class FaultSweepRecord:
    """One (strategy, p, scenario) cell of the sweep."""

    strategy: str
    p: int
    scenario: str
    seconds: float
    fault_free_seconds: float
    mbytes: float
    fault_free_mbytes: float
    parity: bool
    recoveries: int
    cache_misses: int

    @property
    def overhead(self) -> float:
        """Relative makespan overhead vs. the fault-free run."""
        if self.fault_free_seconds <= 0:
            return 0.0
        return self.seconds / self.fault_free_seconds - 1.0


def default_scenarios(timeout: float = 2.0) -> dict[str, tuple[FaultPlan, int]]:
    """scenario name -> (plan, spares)."""
    return {
        "supervised": (FaultPlan(supervise=True, timeout=timeout), 0),
        "crash": (
            FaultPlan(crashes=(WorkerCrash(rank=2, on_recv=2),), timeout=timeout),
            0,
        ),
        "crash_standby": (
            FaultPlan(crashes=(WorkerCrash(rank=2, on_recv=2),), timeout=timeout),
            1,
        ),
        "straggler": (
            FaultPlan(stragglers=(Straggler(rank=1, factor=4.0),), timeout=max(timeout, 30.0)),
            0,
        ),
    }


def run_fault_sweep(
    dataset: str = "trains",
    ps: Sequence[int] = (2, 4),
    strategies: Sequence[str] = ("p2mdie",),
    scenarios: Optional[dict] = None,
    seed: int = 0,
    scale: str = "small",
    backend="sim",
    timeout: float = 2.0,
) -> list[FaultSweepRecord]:
    """Run the full sweep; every record's ``parity`` should be True."""
    ds = make_dataset(dataset, seed=seed, scale=scale)
    scenarios = scenarios if scenarios is not None else default_scenarios(timeout)
    records: list[FaultSweepRecord] = []
    for strategy in strategies:
        if strategy not in _OPTIONS:
            raise ValueError(f"unknown strategy {strategy!r} (known: {STRATEGIES})")
        for p in ps:
            opts = dict(p=p, seed=seed, backend=backend, **_OPTIONS[strategy])
            base = run(ds, strategy, **opts)
            for name, (plan, spares) in scenarios.items():
                if any(ev.rank > p + spares for ev in plan.crashes):
                    continue  # scenario does not fit this pool size
                res = run(ds, strategy, fault_plan=plan, spares=spares, **opts)
                records.append(
                    FaultSweepRecord(
                        strategy=strategy,
                        p=p,
                        scenario=name,
                        seconds=res.seconds,
                        fault_free_seconds=base.seconds,
                        mbytes=res.mbytes,
                        fault_free_mbytes=base.mbytes,
                        parity=res.theory == base.theory,
                        recoveries=sum(
                            1 for ev in res.fault_events if "declared dead" in ev
                        ),
                        cache_misses=res.cache_misses,
                    )
                )
    return records


def render_fault_sweep(records: Sequence[FaultSweepRecord]) -> str:
    lines = [
        "Fault-injection sweep — makespan/communication overhead vs fault-free, theory parity",
        f"{'strategy':<12} {'p':>3} {'scenario':<14} {'seconds':>9} {'base s':>9} "
        f"{'overhead':>9} {'MB':>8} {'parity':>6} {'deaths':>6}",
    ]
    for r in records:
        lines.append(
            f"{r.strategy:<12} {r.p:>3} {r.scenario:<14} {r.seconds:>9.3f} "
            f"{r.fault_free_seconds:>9.3f} {r.overhead:>8.1%} {r.mbytes:>8.3f} "
            f"{str(r.parity):>6} {r.recoveries:>6}"
        )
    return "\n".join(lines)
