"""Self-healing on the real multiprocessing backend.

The same deterministic fault plans the simulator injects are injected
into real OS processes (hard ``os._exit`` kills, real sleeps), and the
recovered run must learn the identical theory.
"""

import pytest

from helpers_fault import log_tuples, run_args
from repro.backend import LocalProcessBackend
from repro.cluster.process import SimProcess
from repro.fault.plan import FaultPlan, Straggler, WorkerCrash
from repro.parallel import run_independent, run_p2mdie
from repro.parallel.messages import Ping

TIMEOUT = 2.0


def local_backend():
    return LocalProcessBackend(timeout=300.0)


@pytest.fixture(scope="module")
def base(krki):
    return run_p2mdie(*run_args(krki), p=3, width=10, seed=0)


class TestLocalCrashRecovery:
    def test_pipeline_phase_crash(self, krki, base):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),), timeout=TIMEOUT
        )
        r = run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0, fault_plan=plan, backend=local_backend()
        )
        assert r.theory == base.theory
        assert log_tuples(r) == log_tuples(base)
        assert any("declared dead" in ev for ev in r.fault_events)
        # The parent recorded the hard child death as an injected fault.
        assert any(f.kind == "crash" and f.rank == 2 for f in r.fault_log)

    def test_eval_phase_crash_with_standby(self, krki, base):
        plan = FaultPlan(crashes=(WorkerCrash(rank=3, on_recv=1, tag="evaluate"),), timeout=TIMEOUT)
        r = run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0, fault_plan=plan, spares=1,
            backend=local_backend(),
        )
        assert r.theory == base.theory
        assert any("adopted by host 4" in ev for ev in r.fault_events)

    def test_independent_crash(self, krki):
        b = run_independent(*run_args(krki), p=3, seed=0)
        plan = FaultPlan(crashes=(WorkerCrash(rank=2, on_recv=2),), timeout=TIMEOUT)
        r = run_independent(
            *run_args(krki), p=3, seed=0, fault_plan=plan, backend=local_backend()
        )
        assert r.theory == b.theory


class _Boss(SimProcess):
    def run(self, ctx):
        yield ctx.send(1, Ping(token=1), tag="t")
        yield ctx.recv(timeout=0.2)


class _Victim(SimProcess):
    def run(self, ctx):
        yield ctx.recv()


class TestLocalCrashLogging:
    def test_injected_crash_detail_is_the_same_every_run(self):
        """Regression: the supervisor read ``exitcode`` as soon as the dying
        child's pipes closed, before the child could be reaped, so the same
        injected crash was logged ``injected crash`` or ``died (exitcode
        None)`` from run to run (18 of 20 here with these two bare
        processes, 3 of 20 with the p2mdie crash above)."""
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=1),), timeout=0.2)
        details = []
        for _ in range(20):
            run = LocalProcessBackend(timeout=30.0).run([_Boss(0), _Victim(1)], fault_plan=plan)
            details += [(f.kind, f.rank, f.detail) for f in run.fault_log]
        assert details == [("crash", 1, "injected crash")] * 20


class TestLocalTimingFaults:
    def test_straggler_real_sleeps_preserve_theory(self, trains):
        b = run_p2mdie(*run_args(trains), p=2, width=10, seed=0)
        plan = FaultPlan(stragglers=(Straggler(rank=1, factor=3.0),), timeout=60.0)
        r = run_p2mdie(
            *run_args(trains), p=2, width=10, seed=0, fault_plan=plan, backend=local_backend()
        )
        assert r.theory == b.theory


class TestLocalDropLogging:
    def test_injected_drop_recorded_like_sim(self, trains):
        """Both substrates report the same injected-drop observability."""
        from repro.fault.plan import MessageLoss

        plan = FaultPlan(losses=(MessageLoss(src=0, dst=2, nth=2),), timeout=TIMEOUT)
        r = run_p2mdie(
            *run_args(trains), p=2, width=10, seed=0, fault_plan=plan, backend=local_backend()
        )
        assert any(f.kind == "drop" and f.rank == 0 for f in r.fault_log)


class TestCrossSubstrateParity:
    def test_sim_and_local_recover_to_same_theory(self, krki):
        """The acceptance property: the same crash plan on both substrates
        converges to the same learned theory as the fault-free run."""
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),), timeout=TIMEOUT
        )
        sim = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan)
        loc = run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0, fault_plan=plan, backend=local_backend()
        )
        assert sim.theory == loc.theory
        assert log_tuples(sim) == log_tuples(loc)
