"""Sampling parity across execution substrates.

The deterministic-seed regression for the sampled-coverage mode: with a
fixed seed, the stratified samplers draw identical masks everywhere —
the discrete-event sim, real local processes, and a threaded-SPMD MPI
harness — so all three substrates learn identical theories, log
identical epochs, and emit identical :class:`CoverageCertificate`
artifacts (strata rows included).

Also pins the raw sampler mask stream for a fixed seed: the masks are
derived, never shipped, so any drift in the RNG derivation path would
silently desynchronize master and (re-adopted) worker shards.  The
golden values below make such a drift a loud test failure instead.
"""

import threading

import pytest

from repro.backend import LocalProcessBackend
from repro.backend.mpi import MPIBackend
from repro.datasets import make_dataset
from repro.fault.plan import FaultPlan, Straggler, WorkerCrash
from repro.ilp.sampling import make_sampler
from repro.parallel import run_p2mdie

from test_mpi_fault import ClusterComm, FakeStatus  # same directory

LOCAL_TIMEOUT = 300.0


@pytest.fixture
def fake_mpi(monkeypatch):
    import sys
    import types

    mod = types.ModuleType("mpi4py")
    mpi = types.SimpleNamespace(ANY_SOURCE=-1, ANY_TAG=-1, Status=FakeStatus)
    mod.MPI = mpi
    monkeypatch.setitem(sys.modules, "mpi4py", mod)
    monkeypatch.setitem(sys.modules, "mpi4py.MPI", mpi)
    return mod


def _sampled_dataset(name="trains"):
    ds = make_dataset(name, seed=0, scale="small")
    return ds, ds.config.replace(
        coverage_sampling=True, sample_fraction=0.5, sample_min=2
    )


def _epoch_rows(res):
    return [
        (l.epoch, l.bag_size, tuple(str(c) for c in l.accepted), l.pos_covered)
        for l in res.epoch_logs
    ]


def _assert_sampled_parity(a, b):
    assert list(a.theory) == list(b.theory)
    assert a.epochs == b.epochs
    assert a.uncovered == b.uncovered
    assert _epoch_rows(a) == _epoch_rows(b)
    assert a.certificate is not None and b.certificate is not None
    assert a.certificate == b.certificate  # strata rows and entries included
    assert a.certificate.ok


class TestSimLocalParity:
    @pytest.mark.parametrize("name", ["trains", "krki"])
    def test_p2mdie_sampled(self, name):
        ds, config = _sampled_dataset(name)
        args = (ds.kb, ds.pos, ds.neg, ds.modes, config)
        r_sim = run_p2mdie(*args, p=2, seed=0)
        r_loc = run_p2mdie(
            *args, p=2, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT)
        )
        assert len(r_sim.theory) >= 1
        _assert_sampled_parity(r_sim, r_loc)

    def test_more_workers(self):
        ds, config = _sampled_dataset()
        args = (ds.kb, ds.pos, ds.neg, ds.modes, config)
        r_sim = run_p2mdie(*args, p=4, seed=0)
        r_loc = run_p2mdie(
            *args, p=4, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT)
        )
        _assert_sampled_parity(r_sim, r_loc)

    def test_per_rank_strata_recorded(self):
        ds, config = _sampled_dataset()
        res = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, config, p=2, seed=0)
        labels = [row[0] for row in res.certificate.strata]
        assert labels == ["pos@r1", "neg@r1", "pos@r2", "neg@r2"]


class TestSampledUnderAPlan:
    """docs/sampling.md: the screening request has no stamped form, so
    a sampled run under a fault plan evaluates every round
    exactly — every certificate entry is ``deferred``, no stratum is ever
    reported — and a crash changes neither theory nor log."""

    def test_supervised_and_crashed_runs_agree_and_defer(self):
        ds = make_dataset("krki", seed=0, scale="small")
        config = ds.config.replace(coverage_sampling=True, sample_fraction=0.5, sample_min=4)
        args = (ds.kb, ds.pos, ds.neg, ds.modes, config)
        crash = FaultPlan(  # the test_ft_matrix.py acceptance plan
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),),
            stragglers=(Straggler(rank=1, factor=2.0),),
            timeout=2.0,
        )
        supervised = run_p2mdie(*args, p=3, seed=0, fault_plan=FaultPlan(supervise=True))
        crashed = run_p2mdie(*args, p=3, seed=0, fault_plan=crash)
        assert any(f.kind == "crash" and f.rank == 2 for f in crashed.fault_log)
        assert len(supervised.theory) >= 1
        assert list(crashed.theory) == list(supervised.theory)
        assert _epoch_rows(crashed) == _epoch_rows(supervised)
        for res in (supervised, crashed):
            cert = res.certificate
            assert cert.ok
            assert len(cert.entries) == len(res.theory)
            assert all(e.deferred for e in cert.entries)
            assert cert.strata == ()


class TestThreadedSPMDParity:
    """Every MPI rank is a thread over a ClusterComm view, making the
    identical ``run_p2mdie`` call — the full SPMD protocol without an
    MPI runtime (idiom of test_mpi_fault.TestThreadedSPMDParity)."""

    def _spmd(self, ds, config, n_ranks, p):
        cluster = ClusterComm(n_ranks)
        results = {}
        errors = {}

        def rank_main(r):
            try:
                bk = MPIBackend(comm=cluster.view(r))
                results[r] = run_p2mdie(
                    ds.kb, ds.pos, ds.neg, ds.modes, config,
                    p=p, seed=0, backend=bk,
                )
            except BaseException as exc:  # surface in the test, not a hang
                errors[r] = exc

        threads = [
            threading.Thread(target=rank_main, args=(r,)) for r in range(n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads), "SPMD run deadlocked"
        assert not errors, f"rank failures: {errors}"
        return results

    def test_mpi_matches_sim(self, fake_mpi):
        ds, config = _sampled_dataset()
        base = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, config, p=2, seed=0)
        results = self._spmd(ds, config, n_ranks=3, p=2)
        _assert_sampled_parity(base, results[0])
        # every rank's front-end returns the rank-0 artifacts
        _assert_sampled_parity(base, results[2])


class TestSamplerMaskRegression:
    """Golden masks: the labelled RNG stream behind every sampler.

    These values were produced by ``make_rng(seed, "coverage_sample",
    *labels)`` at the PR that introduced sampling; they must never change
    — adopted spare workers *re-derive* their shard's masks instead of
    receiving them, so a drift here breaks fault-recovery determinism
    silently everywhere else.
    """

    KW = dict(fraction=0.25, delta=0.05, min_stratum=4)

    def test_fixed_seed_masks_are_stable(self):
        s = make_sampler(32, 24, 7, **self.KW)
        assert (s.pos_mask, s.neg_mask) == (436210195, 274600)
        assert (s.pos_n, s.neg_n) == (8, 6)

    def test_worker_labelled_masks_are_stable(self):
        per_rank = [
            make_sampler(16, 16, 0, labels=("worker", r), **self.KW)
            for r in (1, 2, 3)
        ]
        assert [(s.pos_mask, s.neg_mask) for s in per_rank] == [
            (17280, 417),
            (36932, 33036),
            (912, 1793),
        ]

    def test_redraw_equals_first_draw(self):
        # The property the adoption path relies on, stated directly.
        for r in (1, 2):
            a = make_sampler(40, 30, 3, labels=("worker", r), **self.KW)
            b = make_sampler(40, 30, 3, labels=("worker", r), **self.KW)
            assert a == b
