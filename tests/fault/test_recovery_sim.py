"""Self-healing on the simulated cluster: every fault scenario must learn
the exact fault-free theory (and epoch logs), for all three strategies.

Also the golden-parity guarantees: an *empty* plan is byte-for-byte
identical to no plan at all, and the supervised (fault-free, protocol-on)
run matches the unsupervised theory.
"""

import pytest

from helpers_fault import log_tuples, run_args
from repro.fault.plan import (
    FaultPlan,
    MessageLoss,
    Straggler,
    WorkerCrash,
    WorkerJoin,
)
from repro.fault.recovery import PoolSupervisor, RecoveryError
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

TIMEOUT = 2.0


@pytest.fixture(scope="module")
def base(krki):
    return run_p2mdie(*run_args(krki), p=3, width=10, seed=0)


class TestEmptyPlanGoldenParity:
    """fault_plan=FaultPlan() must be indistinguishable from None."""

    def test_p2mdie_bitwise_identical(self, trains):
        a = run_p2mdie(*run_args(trains), p=3, width=10, seed=0)
        b = run_p2mdie(*run_args(trains), p=3, width=10, seed=0, fault_plan=FaultPlan())
        assert b.theory == a.theory
        assert log_tuples(b) == log_tuples(a)
        assert b.comm.messages == a.comm.messages
        assert b.comm.bytes_total == a.comm.bytes_total
        assert b.comm.bytes_by_tag == a.comm.bytes_by_tag
        assert b.seconds == a.seconds

    def test_spares_require_a_plan(self, trains):
        with pytest.raises(ValueError, match="spares require a fault plan"):
            run_p2mdie(*run_args(trains), p=2, width=10, seed=0, spares=1)


class TestSupervisedParity:
    """Protocol on, no faults: same theory, same epoch decisions."""

    def test_p2mdie(self, krki, base):
        r = run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0,
            fault_plan=FaultPlan(supervise=True, timeout=TIMEOUT),
        )
        assert r.theory == base.theory
        assert log_tuples(r) == log_tuples(base)
        assert r.fault_events == []

    def test_epoch_logs_carry_cache_counters(self, krki):
        r = run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0,
            fault_plan=FaultPlan(supervise=True, timeout=TIMEOUT),
        )
        assert all(l.cache_hits is not None and l.cache_misses is not None for l in r.epoch_logs)
        assert any(l.cache_misses > 0 for l in r.epoch_logs)
        assert r.cache_stats and set(r.cache_stats) == {1, 2, 3}

    def test_fault_free_path_has_no_cache_counters(self, base):
        # The PR 3 wire protocol carries no cache reports; the fields stay unset.
        assert all(l.cache_hits is None for l in base.epoch_logs)


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "crash",
        [
            WorkerCrash(rank=2, on_recv=1, tag="load_examples"),  # before loading
            WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),  # pipeline phase, epoch 2
            WorkerCrash(rank=1, on_recv=1, tag="evaluate"),  # evaluation phase
            WorkerCrash(rank=3, on_recv=4),  # whatever arrives 4th
        ],
        ids=["at-load", "pipeline-epoch2", "eval-phase", "fourth-message"],
    )
    def test_p2mdie_single_crash_exact_recovery(self, krki, base, crash):
        plan = FaultPlan(crashes=(crash,), timeout=TIMEOUT)
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan)
        assert r.theory == base.theory
        assert log_tuples(r) == log_tuples(base)
        assert any("declared dead" in ev for ev in r.fault_events)
        assert any(f.kind == "crash" for f in r.fault_log)
        assert r.seconds > base.seconds  # recovery costs time, never results

    def test_crash_adopts_onto_standby_spare(self, krki, base):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=3, on_recv=2, tag="start_pipeline"),), timeout=TIMEOUT
        )
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan, spares=1)
        assert r.theory == base.theory
        assert any("adopted by host 4" in ev for ev in r.fault_events)

    def test_two_crashes(self, krki, base):
        plan = FaultPlan(
            crashes=(
                WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),
                WorkerCrash(rank=3, on_recv=1, tag="evaluate"),
            ),
            timeout=TIMEOUT,
        )
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan)
        assert r.theory == base.theory
        assert sum(1 for ev in r.fault_events if "declared dead" in ev) == 2

    def test_independent_crash(self, krki):
        b = run_independent(*run_args(krki), p=3, seed=0)
        plan = FaultPlan(crashes=(WorkerCrash(rank=2, on_recv=2),), timeout=TIMEOUT)
        r = run_independent(*run_args(krki), p=3, seed=0, fault_plan=plan)
        assert r.theory == b.theory
        assert log_tuples(r) == log_tuples(b)

    def test_covpar_crash(self, krki):
        b = run_coverage_parallel(*run_args(krki), p=3, batch_size=4, seed=0, max_epochs=5)
        plan = FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=4),), timeout=TIMEOUT)
        r = run_coverage_parallel(
            *run_args(krki), p=3, batch_size=4, seed=0, max_epochs=5, fault_plan=plan
        )
        assert r.theory == b.theory
        assert log_tuples(r) == log_tuples(b)


class TestElasticity:
    def test_join_rebalances_and_preserves_theory(self, krki, base):
        plan = FaultPlan(joins=(WorkerJoin(rank=4, epoch=2),), timeout=TIMEOUT)
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan, spares=1)
        assert r.theory == base.theory
        assert any("joined the pool" in ev for ev in r.fault_events)

    def test_crash_then_join_migrates_shards(self, krki, base):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),),
            joins=(WorkerJoin(rank=4, epoch=3),),
            timeout=TIMEOUT,
        )
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan, spares=1)
        assert r.theory == base.theory
        assert any("migrated to host" in ev for ev in r.fault_events)

    def test_join_rank_must_be_a_spare(self, krki):
        plan = FaultPlan(joins=(WorkerJoin(rank=2, epoch=2),), timeout=TIMEOUT)
        with pytest.raises(ValueError, match="not a provisioned spare"):
            run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan, spares=1)


class TestTimingFaults:
    def test_straggler_changes_time_not_theory(self, krki, base):
        plan = FaultPlan(stragglers=(Straggler(rank=1, factor=5.0),), timeout=60.0)
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan)
        assert r.theory == base.theory
        assert log_tuples(r) == log_tuples(base)
        assert r.seconds > base.seconds

    def test_backend_instance_armed_per_run_only(self, trains):
        """A backend holds no plan between runs: after a faulty run, the
        next run on the same instance is fault-free."""
        from repro.backend import SimBackend

        bk = SimBackend()
        plan = FaultPlan(crashes=(WorkerCrash(rank=2, on_recv=2),), timeout=TIMEOUT)
        faulty = run_p2mdie(*run_args(trains), p=2, width=10, seed=0, backend=bk, fault_plan=plan)
        assert any(f.kind == "crash" for f in faulty.fault_log)
        clean = run_p2mdie(*run_args(trains), p=2, width=10, seed=0, backend=bk)
        assert clean.fault_log == [] and clean.fault_events == []

    def test_message_loss_healed_by_reissue(self, krki, base):
        plan = FaultPlan(losses=(MessageLoss(src=0, dst=2, nth=3),), timeout=TIMEOUT)
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=plan)
        assert r.theory == base.theory
        assert any(f.kind == "drop" for f in r.fault_log)

    def test_crash_recovery_survives_losing_any_control_message(self, trains):
        """Dropping ANY single master→adopter message after a crash —
        including the one-shot AdoptWorker / UpdateRouting control
        messages — must still converge to the fault-free theory (the
        master reinforces adoption state when collectives stall)."""
        b = run_p2mdie(*run_args(trains), p=2, width=10, seed=0)
        crash = WorkerCrash(rank=2, on_recv=1, tag="start_pipeline")
        for nth in range(2, 10):
            plan = FaultPlan(
                crashes=(crash,),
                losses=(MessageLoss(src=0, dst=1, nth=nth),),
                timeout=1.0,
            )
            r = run_p2mdie(*run_args(trains), p=2, width=10, seed=0, fault_plan=plan)
            assert r.theory == b.theory, f"lost message #{nth} broke recovery"


class TestPoolSupervisor:
    def test_reassign_prefers_idle_spares(self):
        sup = PoolSupervisor(n_logical=3, spares=1)
        sup.declare_dead(2)
        moves = sup.reassign({2})
        assert moves == [(2, 4)]
        assert sup.host_of(2) == 4

    def test_reassign_round_robin_without_spares(self):
        sup = PoolSupervisor(n_logical=4)
        sup.declare_dead(1)
        sup.declare_dead(2)
        moves = sup.reassign({1, 2})
        assert [m[0] for m in moves] == [1, 2]
        assert all(h in (3, 4) for _, h in moves)

    def test_no_hosts_left_raises(self):
        sup = PoolSupervisor(n_logical=2)
        sup.declare_dead(1)
        sup.declare_dead(2)
        with pytest.raises(RecoveryError):
            sup.reassign({1, 2})

    def test_admit_balances_over_grown_pool(self):
        sup = PoolSupervisor(n_logical=4, spares=2)
        sup.declare_dead(2)
        sup.reassign({2})
        moves = sup.admit(6)
        hosts = {sup.host_of(l) for l in (1, 2, 3, 4)}
        assert 6 in sup.active
        assert 2 not in hosts
        assert moves  # something actually moved
