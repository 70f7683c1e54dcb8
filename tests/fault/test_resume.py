"""Checkpoint → resume: the continued run reproduces the original exactly."""

import dataclasses
import glob
import gzip
import os
import pathlib
import re

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
    """Load a ``.ckpt`` an earlier commit wrote (krki 40/40, seed 0).

    ``parent_f2ff849_*`` still signed checkpoints with ``repr(config)``
    (version 0), so the files spell out the four config switches retired
    right after that commit; ``parent_f9b17c1_v1_*`` are signed
    ``ILPConfig.v1`` and spell out the sampled-coverage fields;
    ``parent_9221765_v2_*`` are signed ``ILPConfig.v2`` and spell out the
    four one-valued learner options; ``parent_810ffe2_v3_*`` are signed
    ``ILPConfig.v3`` and spell out the search strategy.  They are stored gzip-compressed for
    that reason alone: a tree-wide grep for retired names should find
    nothing.
    """
    path = tmp_path / name
    path.write_bytes(gzip.decompress((DATA / f"{name}.gz").read_bytes()))
    return load_checkpoint(str(path))


def retired_fields(saved_sig: str) -> list[str]:
    """Names a saved signature (any version) carries that ILPConfig lost since."""
    names = [item.split("=")[0] for item in saved_sig[saved_sig.index("(") + 1 : -1].split(", ")]
    current = {f.name for f in dataclasses.fields(ILPConfig)}
    return [n for n in names if n not in current]


@pytest.fixture(scope="module")
def krki40():
    return make_dataset("krki", seed=0, n_pos=40, n_neg=40)


def assert_mdie_resumes(state, ds):
    """Resuming ``state`` reproduces the uninterrupted run bit for bit."""
    full = mdie(*run_args(ds), seed=0)
    res = mdie(*run_args(ds), seed=0, resume=state)
    assert res.epochs == full.epochs > state.epoch
    assert res.theory == full.theory
    assert [(e, r, c) for e, r, c, _ in res.log] == [(e, r, c) for e, r, c, _ in full.log]
    assert res.uncovered == full.uncovered


def assert_p2mdie_resumes(state, ds):
    full = run_p2mdie(*run_args(ds), p=2, seed=0)
    res = run_p2mdie(*run_args(ds), p=2, seed=0, resume=state)
    assert res.epochs == full.epochs > state.epoch
    assert res.theory == full.theory
    assert log_tuples(res) == log_tuples(full)
    assert res.uncovered == full.uncovered


class TestParentCommitCheckpoint:
    """Signature migration: checkpoints written before
    ``ILPConfig.signature()`` existed resume under it, bit-identically."""

    def test_mdie_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        assert state.config_sig.startswith("ILPConfig(max_clause_length=")
        assert (state.algo, state.epoch) == ("mdie", 3)
        assert_mdie_resumes(state, krki40)

    def test_p2mdie_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_p2mdie_epoch_0002.ckpt", tmp_path)
        assert (state.algo, state.epoch, state.n_workers) == ("p2mdie", 2, 2)
        assert_p2mdie_resumes(state, krki40)

    def test_refuses_changed_surviving_field(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        other = krki40.config.replace(max_nodes=krki40.config.max_nodes + 1)
        with pytest.raises(CheckpointError, match=r"max_nodes: saved 500, current 501"):
            mdie(krki40.kb, krki40.pos, krki40.neg, krki40.modes, other, seed=0, resume=state)

    def test_refuses_retired_switch_that_was_off(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        v1 = parent_checkpoint("parent_f9b17c1_v1_mdie_epoch_0003.ckpt", tmp_path)
        # The four switches retired with version 0: a v1 signature no
        # longer spells them (the fields it does retire are sampling's).
        # The coverage kernel, also spelled only by version 0, was no
        # switch: any saved value resumes (the test below).
        switches = [
            n
            for n in retired_fields(state.config_sig)
            if n not in retired_fields(v1.config_sig) and n != "coverage_kernel"
        ]
        assert len(switches) == 4
        for name in switches:
            was_off = state.config_sig.replace(f"{name}=True", f"{name}=False").replace(
                f"{name}=None", f"{name}=False"
            )
            assert was_off != state.config_sig
            with pytest.raises(CheckpointError, match=f"{name}: saved False"):
                mdie(*run_args(krki40), seed=0, resume=state.replace(config_sig=was_off))

    @pytest.mark.parametrize("kernel", ["'legacy'", "'new'"])
    def test_resumes_under_any_retired_kernel(self, krki40, tmp_path, kernel):
        """Both kernels were held bit-identical, so a run saved under
        either resumes on the one machine left."""
        state = parent_checkpoint("parent_f2ff849_mdie_epoch_0003.ckpt", tmp_path)
        assert "coverage_kernel=None" in state.config_sig
        saved = state.config_sig.replace("coverage_kernel=None", f"coverage_kernel={kernel}")
        assert_mdie_resumes(state.replace(config_sig=saved), krki40)


class TestParentV1Checkpoint:
    """Checkpoints signed ``ILPConfig.v1`` at f9b17c1 (krki 40/40, seed 0:
    ``mdie`` after epoch 3, ``p2mdie`` p=2 after epoch 2) resume
    bit-identically."""

    def test_mdie_v1_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f9b17c1_v1_mdie_epoch_0003.ckpt", tmp_path)
        assert state.config_sig.startswith("ILPConfig.v1(max_clause_length=")
        assert (state.algo, state.epoch) == ("mdie", 3)
        assert_mdie_resumes(state, krki40)

    def test_p2mdie_v1_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint("parent_f9b17c1_v1_p2mdie_epoch_0002.ckpt", tmp_path)
        assert state.config_sig.startswith("ILPConfig.v1(max_clause_length=")
        assert (state.algo, state.epoch, state.n_workers) == ("p2mdie", 2, 2)
        assert_p2mdie_resumes(state, krki40)


V0_MDIE = "parent_f2ff849_mdie_epoch_0003.ckpt"
V1_MDIE = "parent_f9b17c1_v1_mdie_epoch_0003.ckpt"
V0_P2MDIE = "parent_f2ff849_p2mdie_epoch_0002.ckpt"
V1_P2MDIE = "parent_f9b17c1_v1_p2mdie_epoch_0002.ckpt"


class TestRetiredSampling:
    """Sampled coverage is retired: a saved run with it off (``None`` or
    ``False``) resumes bit-identically, one with it on is refused by name."""

    @pytest.mark.parametrize("name", [V0_MDIE, V1_MDIE], ids=["v0", "v1"])
    def test_sampling_off_resumes_bit_identically(self, name, krki40, tmp_path):
        state = parent_checkpoint(name, tmp_path)
        off = state.config_sig.replace("coverage_sampling=None", "coverage_sampling=False")
        assert off != state.config_sig
        assert_mdie_resumes(state.replace(config_sig=off), krki40)

    @pytest.mark.parametrize("name", [V0_MDIE, V1_MDIE], ids=["v0", "v1"])
    def test_sampling_on_is_refused_by_name(self, name, krki40, tmp_path):
        state = parent_checkpoint(name, tmp_path)
        on = state.config_sig.replace("coverage_sampling=None", "coverage_sampling=True")
        with pytest.raises(CheckpointError, match="coverage_sampling: saved True, but this"):
            mdie(*run_args(krki40), seed=0, resume=state.replace(config_sig=on))

    @pytest.mark.parametrize("name", [V0_MDIE, V1_MDIE], ids=["v0", "v1"])
    def test_sample_parameters_never_mattered(self, name, krki40, tmp_path):
        """With sampling off the sample parameters were never read, so a
        saved run resumes whatever values it spelled for them."""
        state = parent_checkpoint(name, tmp_path)
        sig = state.config_sig
        for old, new in (
            ("sample_fraction=0.25", "sample_fraction=1.0"),
            ("sample_min=16", "sample_min=1"),
            ("sample_delta=0.05", "sample_delta=0.5"),
        ):
            assert old in sig
            sig = sig.replace(old, new)
        assert_mdie_resumes(state.replace(config_sig=sig), krki40)

    @pytest.mark.parametrize("name", [V0_P2MDIE, V1_P2MDIE], ids=["v0", "v1"])
    def test_p2mdie_sampling_off_resumes_bit_identically(self, name, krki40, tmp_path):
        state = parent_checkpoint(name, tmp_path)
        off = state.config_sig.replace("coverage_sampling=None", "coverage_sampling=False")
        assert off != state.config_sig
        assert_p2mdie_resumes(state.replace(config_sig=off), krki40)

    @pytest.mark.parametrize("name", [V0_P2MDIE, V1_P2MDIE], ids=["v0", "v1"])
    def test_p2mdie_sampling_on_is_refused_by_name(self, name, krki40, tmp_path):
        state = parent_checkpoint(name, tmp_path)
        on = state.config_sig.replace("coverage_sampling=None", "coverage_sampling=True")
        with pytest.raises(CheckpointError, match="coverage_sampling: saved True, but this"):
            run_p2mdie(*run_args(krki40), p=2, seed=0, resume=state.replace(config_sig=on))


V2_MDIE = "parent_9221765_v2_mdie_epoch_0003.ckpt"
V2_P2MDIE = "parent_9221765_v2_p2mdie_epoch_0002.ckpt"

#: The learner options version 2 signed that every caller ran with one
#: value, spelled as the v2 checkpoints spell that value ...
ONE_VALUED = {
    "heuristic": "'coverage'",
    "select_seed_randomly": "True",
    "on_uncoverable": "'skip'",
    "reorder_body": "False",
}
#: ... and a value of each that no caller ran.
OTHER_VALUES = [
    ("heuristic", "'laplace'"),
    ("reorder_body", "True"),
    ("on_uncoverable", "'memorize'"),
    ("select_seed_randomly", "False"),
]


def _with_other_value(state, name, value):
    saved = f"{name}={ONE_VALUED[name]}"
    assert saved in state.config_sig
    return state.replace(config_sig=state.config_sig.replace(saved, f"{name}={value}"))


class TestRetiredOptions:
    """Checkpoints signed ``ILPConfig.v2`` at 9221765 (krki 40/40, seed 0:
    ``mdie`` after epoch 3, ``p2mdie`` p=2 after epoch 2) resume
    bit-identically; the same checkpoint with any other value of a
    one-valued option is refused, naming the option."""

    def test_mdie_v2_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint(V2_MDIE, tmp_path)
        assert state.config_sig.startswith("ILPConfig.v2(max_clause_length=")
        assert all(f"{n}={v}" in state.config_sig for n, v in ONE_VALUED.items())
        assert (state.algo, state.epoch) == ("mdie", 3)
        assert_mdie_resumes(state, krki40)

    def test_p2mdie_v2_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint(V2_P2MDIE, tmp_path)
        assert state.config_sig.startswith("ILPConfig.v2(max_clause_length=")
        assert all(f"{n}={v}" in state.config_sig for n, v in ONE_VALUED.items())
        assert (state.algo, state.epoch, state.n_workers) == ("p2mdie", 2, 2)
        assert_p2mdie_resumes(state, krki40)

    @pytest.mark.parametrize("name,value", OTHER_VALUES, ids=[n for n, _ in OTHER_VALUES])
    def test_mdie_other_value_is_refused_by_name(self, name, value, krki40, tmp_path):
        state = _with_other_value(parent_checkpoint(V2_MDIE, tmp_path), name, value)
        with pytest.raises(CheckpointError, match=re.escape(f"{name}: saved {value}")):
            mdie(*run_args(krki40), seed=0, resume=state)

    @pytest.mark.parametrize("name,value", OTHER_VALUES, ids=[n for n, _ in OTHER_VALUES])
    def test_p2mdie_other_value_is_refused_by_name(self, name, value, krki40, tmp_path):
        state = _with_other_value(parent_checkpoint(V2_P2MDIE, tmp_path), name, value)
        with pytest.raises(CheckpointError, match=re.escape(f"{name}: saved {value}")):
            run_p2mdie(*run_args(krki40), p=2, seed=0, resume=state)


V3_MDIE = "parent_810ffe2_v3_mdie_epoch_0003.ckpt"
V3_P2MDIE = "parent_810ffe2_v3_p2mdie_epoch_0002.ckpt"

#: Search strategies version 3 could sign that no shipped run used.
OTHER_STRATEGIES = ["'beam'", "'best_first'"]


def _with_strategy(state, value, beam_width=5):
    saved = "search_strategy='bfs', beam_width=5"
    assert saved in state.config_sig
    sig = state.config_sig.replace(saved, f"search_strategy={value}, beam_width={beam_width}")
    return state.replace(config_sig=sig)


def _refusal(value):
    return re.escape(f"search_strategy: saved {value}, but this version has no such setting")


class TestParentV3Checkpoint:
    """Checkpoints signed ``ILPConfig.v3`` at 810ffe2 (krki 40/40, seed 0:
    ``mdie`` after epoch 3, ``p2mdie`` p=2 after epoch 2) resume
    bit-identically, under any beam width; the same checkpoint saved
    under another search strategy is refused, naming the field."""

    def test_mdie_v3_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint(V3_MDIE, tmp_path)
        assert state.config_sig.startswith("ILPConfig.v3(max_clause_length=")
        assert "search_strategy='bfs', beam_width=5" in state.config_sig
        assert (state.algo, state.epoch) == ("mdie", 3)
        assert_mdie_resumes(state, krki40)

    def test_p2mdie_v3_resumes_bit_identically(self, krki40, tmp_path):
        state = parent_checkpoint(V3_P2MDIE, tmp_path)
        assert state.config_sig.startswith("ILPConfig.v3(max_clause_length=")
        assert "search_strategy='bfs', beam_width=5" in state.config_sig
        assert (state.algo, state.epoch, state.n_workers) == ("p2mdie", 2, 2)
        assert_p2mdie_resumes(state, krki40)

    @pytest.mark.parametrize("value", OTHER_STRATEGIES)
    def test_mdie_other_strategy_is_refused_by_name(self, value, krki40, tmp_path):
        state = _with_strategy(parent_checkpoint(V3_MDIE, tmp_path), value)
        with pytest.raises(CheckpointError, match=_refusal(value)):
            mdie(*run_args(krki40), seed=0, resume=state)

    @pytest.mark.parametrize("value", OTHER_STRATEGIES)
    def test_p2mdie_other_strategy_is_refused_by_name(self, value, krki40, tmp_path):
        state = _with_strategy(parent_checkpoint(V3_P2MDIE, tmp_path), value)
        with pytest.raises(CheckpointError, match=_refusal(value)):
            run_p2mdie(*run_args(krki40), p=2, seed=0, resume=state)

    def test_any_beam_width_under_bfs_resumes(self, krki40, tmp_path):
        """The beam width was never read under breadth-first."""
        state = _with_strategy(parent_checkpoint(V3_MDIE, tmp_path), "'bfs'", beam_width=1)
        assert_mdie_resumes(state, krki40)
