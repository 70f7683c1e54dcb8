"""Checkpoint → resume: the continued run reproduces the original exactly."""

import dataclasses
import glob
import gzip
import os
import pathlib

import pytest

from helpers_fault import log_tuples, run_args
from repro.datasets import make_dataset
from repro.fault.checkpoint import CheckpointError, load_checkpoint
from repro.ilp.config import ILPConfig
from repro.fault.plan import FaultPlan, WorkerCrash
from repro.ilp.mdie import mdie
from repro.parallel import run_coverage_parallel, run_p2mdie


def ckpts(directory):
    return sorted(glob.glob(os.path.join(str(directory), "*.ckpt")))


class TestSequentialResume:
    def test_every_checkpoint_resumes_bit_identically(self, krki, tmp_path):
        full = mdie(*run_args(krki), seed=0, checkpoint_dir=str(tmp_path))
        paths = ckpts(tmp_path)
        assert len(paths) == full.epochs
        full_rules = [(e, r, c) for e, r, c, _ in full.log]
        for path in paths[:-1]:
            res = mdie(*run_args(krki), seed=0, resume=load_checkpoint(path))
            assert res.theory == full.theory
            assert [(e, r, c) for e, r, c, _ in res.log] == full_rules
            assert res.epochs == full.epochs
            assert res.uncovered == full.uncovered

    def test_resume_guards(self, trains, tmp_path):
        mdie(*run_args(trains), seed=0, checkpoint_dir=str(tmp_path))
        state = load_checkpoint(ckpts(tmp_path)[0])
        with pytest.raises(ValueError, match="seed"):
            mdie(*run_args(trains), seed=99, resume=state)
        with pytest.raises(ValueError, match="not 'mdie'"):
            mdie(*run_args(trains), seed=0, resume=state.replace(algo="p2mdie"))
        bad_cfg = trains.config.replace(noise=3)
        with pytest.raises(ValueError, match="different ILP configuration"):
            mdie(trains.kb, trains.pos, trains.neg, trains.modes, bad_cfg, seed=0, resume=state)


class TestParallelResume:
    def test_p2mdie_every_checkpoint(self, krki, tmp_path):
        base = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, checkpoint_dir=str(tmp_path))
        paths = ckpts(tmp_path)
        assert len(paths) == base.epochs
        for path in paths[:-1]:
            res = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, resume=load_checkpoint(path))
            assert res.theory == base.theory
            assert log_tuples(res) == log_tuples(base)

    def test_covpar_resume(self, krki, tmp_path):
        base = run_coverage_parallel(
            *run_args(krki), p=3, batch_size=4, seed=0, max_epochs=4, checkpoint_dir=str(tmp_path)
        )
        paths = ckpts(tmp_path)
        res = run_coverage_parallel(
            *run_args(krki), p=3, batch_size=4, seed=0, max_epochs=4,
            resume=load_checkpoint(paths[0]),
        )
        assert res.theory == base.theory
        assert log_tuples(res) == log_tuples(base)

    def test_resume_rejects_different_p(self, krki, tmp_path):
        run_p2mdie(*run_args(krki), p=3, width=10, seed=0, checkpoint_dir=str(tmp_path))
        state = load_checkpoint(ckpts(tmp_path)[0])
        with pytest.raises(ValueError, match="partitions differ"):
            run_p2mdie(*run_args(krki), p=4, width=10, seed=0, resume=state)

    def test_resume_from_faulty_run_matches_fault_free(self, krki, tmp_path):
        """A crash mid-run does not poison the checkpoints: resuming one
        reproduces the fault-free tail."""
        base = run_p2mdie(*run_args(krki), p=3, width=10, seed=0)
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),), timeout=2.0
        )
        run_p2mdie(
            *run_args(krki), p=3, width=10, seed=0, fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        state = load_checkpoint(ckpts(tmp_path)[0])
        res = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, resume=state)
        assert res.theory == base.theory
        assert log_tuples(res) == log_tuples(base)

    def test_checkpoint_meta_round_trips(self, trains, tmp_path):
        run_p2mdie(
            *run_args(trains), p=2, width=10, seed=0, checkpoint_dir=str(tmp_path),
            checkpoint_meta=(("dataset", "trains"), ("scale", "small")),
        )
        state = load_checkpoint(ckpts(tmp_path)[-1])
        assert state.meta_dict()["dataset"] == "trains"
        assert state.algo == "p2mdie"
        assert state.n_workers == 2


DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def parent_checkpoint(name: str, tmp_path):
    """Load a ``.ckpt`` that commit f2ff849 wrote (krki 40/40, seed 0).

    That commit still signed checkpoints with ``repr(config)``, so the
    files spell out the four config switches retired right after it.
    They are stored gzip-compressed for that reason alone: a tree-wide
    grep for the retired names should find nothing.
    """
    path = tmp_path / name
    path.write_bytes(gzip.decompress((DATA / f"{name}.gz").read_bytes()))
    return load_checkpoint(str(path))


def retired_fields(legacy_sig: str) -> list[str]:
    """Names a ``repr(config)`` signature carries that ILPConfig lost since."""
    names = [item.split("=")[0] for item in legacy_sig[len("ILPConfig(") : -1].split(", ")]
    current = {f.name for f in dataclasses.fields(ILPConfig)}
    return [n for n in names if n not in current]


class TestParentCommitCheckpoint:
    """Signature migration: checkpoints written before
    ``ILPConfig.signature()`` existed resume under it, bit-identically."""

    @pytest.fixture(scope="class")
    def krki40(self):
        return make_dataset("krki", seed=0, n_pos=40, n_neg=40)

    def test_mdie_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        assert state.config_sig.startswith("ILPConfig(max_clause_length=")
        assert (state.algo, state.epoch) == ("mdie", 3)
        full = mdie(*run_args(krki40), seed=0)
        res = mdie(*run_args(krki40), seed=0, resume=state)
        assert res.epochs == full.epochs > state.epoch
        assert res.theory == full.theory
        assert [(e, r, c) for e, r, c, _ in res.log] == [(e, r, c) for e, r, c, _ in full.log]
        assert res.uncovered == full.uncovered

    def test_p2mdie_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_p2mdie_epoch_0002.ckpt", tmp_path)
        assert (state.algo, state.epoch, state.n_workers) == ("p2mdie", 2, 2)
        full = run_p2mdie(*run_args(krki40), p=2, seed=0)
        res = run_p2mdie(*run_args(krki40), p=2, seed=0, resume=state)
        assert res.epochs == full.epochs > state.epoch
        assert res.theory == full.theory
        assert log_tuples(res) == log_tuples(full)

    def test_refuses_changed_surviving_field(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        other = krki40.config.replace(max_nodes=krki40.config.max_nodes + 1)
        with pytest.raises(CheckpointError, match=r"max_nodes: saved 500, current 501"):
            mdie(krki40.kb, krki40.pos, krki40.neg, krki40.modes, other, seed=0, resume=state)

    def test_refuses_retired_switch_that_was_off(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        retired = retired_fields(state.config_sig)
        assert len(retired) == 4
        for name in retired:
            was_off = state.config_sig.replace(f"{name}=True", f"{name}=False").replace(
                f"{name}=None", f"{name}=False"
            )
            assert was_off != state.config_sig
            with pytest.raises(CheckpointError, match=f"{name}: saved False"):
                mdie(*run_args(krki40), seed=0, resume=state.replace(config_sig=was_off))
