"""Tests for the command-line interface."""

import gc
import pathlib
import sys

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_learn_defaults(self):
        args = build_parser().parse_args(["learn", "trains"])
        assert args.p == 1
        assert args.width == 10

    def test_width_nolimit(self):
        args = build_parser().parse_args(["learn", "trains", "--width", "nolimit"])
        assert args.width is None

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["learn", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestLearn:
    def test_sequential(self, capsys):
        assert main(["learn", "trains", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "eastbound" in out
        assert "training-accuracy" in out

    def test_parallel(self, capsys):
        assert main(["learn", "trains", "--p", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p2-mdie" in out
        assert "comm=" in out


def _collector():
    return gc.isenabled(), gc.get_freeze_count()


class TestCollectorState:
    """``main`` builds the dataset with the collector paused and learns on a
    frozen heap, then hands the caller back the collector it had."""

    def test_learn_restores_the_callers_collector(self, monkeypatch, capsys):
        seen = {}

        def spy(name, real):
            def call(*args, **kwargs):
                seen[name] = _collector()
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, call)

        spy("make_dataset", cli.make_dataset)
        spy("run", cli.run)
        before = _collector()
        assert main(["learn", "trains"]) == 0
        assert _collector() == before
        assert seen["make_dataset"][0] is False  # paused during the build
        assert seen["run"][0] is before[0] and seen["run"][1] > 0  # learns on a frozen heap

    def test_a_failed_build_restores_it(self, monkeypatch):
        def fail(*a, **k):
            raise ValueError("no dataset")

        monkeypatch.setattr(cli, "make_dataset", fail)
        before = _collector()
        with pytest.raises(ValueError, match="no dataset"):
            main(["learn", "trains"])
        assert _collector() == before

    def test_a_disabled_collector_stays_disabled(self, capsys):
        gc.disable()
        try:
            before = _collector()
            assert main(["learn", "trains"]) == 0
            assert _collector() == before
        finally:
            gc.enable()

    def test_a_caller_freeze_is_left_as_it_was(self, capsys):
        gc.freeze()
        try:
            before = _collector()
            assert before[1] > 0
            assert main(["learn", "trains"]) == 0
            assert _collector() == before
        finally:
            gc.unfreeze()

    def test_a_whole_process_ends_on_a_frozen_heap(self, monkeypatch, capsys):
        """``python -m repro`` and the console script: the interpreter's last
        collection then has nothing to walk."""
        from repro.__main__ import run

        monkeypatch.setattr(sys, "argv", ["repro", "learn", "trains"])
        try:
            assert run() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


class TestFaultTolerance:
    def test_learn_with_fault_plan(self, tmp_path, capsys):
        from repro.fault.plan import FaultPlan, WorkerCrash

        plan_path = str(tmp_path / "plan.json")
        FaultPlan(
            crashes=(WorkerCrash(rank=2, on_recv=1, tag="start_pipeline"),), timeout=1.0
        ).save(plan_path)
        assert main(
            ["learn", "trains", "--p", "2", "--seed", "1", "--fault-plan", plan_path]
        ) == 0
        out = capsys.readouterr().out
        assert "declared dead" in out
        assert "eval-cache" in out

    def test_learn_fault_plan_requires_parallel(self, tmp_path):
        from repro.fault.plan import FaultPlan

        plan_path = str(tmp_path / "plan.json")
        FaultPlan(supervise=True).save(plan_path)
        assert main(["learn", "trains", "--fault-plan", plan_path]) == 2

    def test_checkpoint_and_resume_sequential(self, tmp_path, capsys):
        import glob

        ckpt_dir = str(tmp_path / "ckpts")
        assert main(["learn", "trains", "--seed", "1", "--checkpoint-dir", ckpt_dir]) == 0
        full = capsys.readouterr().out
        ckpts = sorted(glob.glob(ckpt_dir + "/*.ckpt"))
        assert ckpts
        assert main(["resume", ckpts[0]]) == 0
        resumed = capsys.readouterr().out
        # the resumed run reports the same learned clauses
        full_rules = [l for l in full.splitlines() if l.endswith(".") and ":-" in l]
        res_rules = [l for l in resumed.splitlines() if l.endswith(".") and ":-" in l]
        assert res_rules == full_rules

    def test_checkpoint_and_resume_parallel(self, tmp_path, capsys):
        import glob

        ckpt_dir = str(tmp_path / "ckpts")
        assert main(
            ["learn", "trains", "--p", "2", "--seed", "1", "--checkpoint-dir", ckpt_dir]
        ) == 0
        capsys.readouterr()
        ckpts = sorted(glob.glob(ckpt_dir + "/*.ckpt"))
        assert ckpts
        assert main(["resume", ckpts[0]]) == 0
        assert "resuming p2mdie on trains" in capsys.readouterr().out

    def test_faults_sweep(self, capsys):
        assert main(
            ["faults", "--dataset", "trains", "--ps", "2", "--timeout", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fault-injection sweep" in out
        assert "crash" in out
        assert "False" not in out  # every scenario kept parity


PLANS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "faultplans"
# form -> (document handed to learn --fault-plan, to serve --fault-plan / loadgen --chaos)
BAD_PLANS = {
    "not-an-object": ("[1]", "[1]"),
    "unknown-setting": ('{"timout": 2}', '{"timout": 2}'),
    "unknown-kind": ('{"events": [{"kind": "meteor"}]}', '{"events": [{"kind": "gremlin"}]}'),
    "unknown-field": (
        '{"events": [{"kind": "straggler", "rank": 1, "factor": 2.0, "after_tme": 1}]}',
        '{"events": [{"kind": "reset", "on_request": 1, "opp": "query"}]}',
    ),
    "missing-field": (
        '{"events": [{"kind": "crash", "on_recv": 1}]}',
        '{"events": [{"kind": "reset", "when": "after"}]}',
    ),
    "wrong-type": (
        '{"events": [{"kind": "crash", "rank": "2", "on_recv": 1}]}',
        '{"events": [{"kind": "slot_crash", "on_job": "1"}]}',
    ),
    "invalid-json": ('{"events": [', '{"events": ['),
    "other-plan-kind": (
        (PLANS / "service_chaos.json").read_text(),
        (PLANS / "crash_and_straggler.json").read_text(),
    ),
    "missing-file": (None, None),
}
PLAN_FLAGS = {
    "learn": (["learn", "trains", "--p", "2", "--fault-plan"], "--fault-plan", 0),
    "serve": (["serve", "--port", "0", "--fault-plan"], "--fault-plan", 1),
    "loadgen": (["loadgen", "--chaos"], "--chaos", 1),
}


class TestBadPlanFiles:
    """Every plan the format refuses, on every flag that reads one: exit 2
    with one ``repro: bad <flag> <path>: <reason>`` line, no traceback."""

    @pytest.mark.parametrize("form", sorted(BAD_PLANS))
    @pytest.mark.parametrize("command", sorted(PLAN_FLAGS))
    def test_refused_with_one_line(self, command, form, tmp_path, capsys):
        argv, flag, which = PLAN_FLAGS[command]
        path = tmp_path / "plan.json"
        text = BAD_PLANS[form][which]
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"repro: bad {flag} {path}: ")

    def test_the_process_exits_without_a_traceback(self, tmp_path):
        import os
        import subprocess

        path = tmp_path / "plan.json"
        path.write_text(BAD_PLANS["wrong-type"][0])
        env = {**os.environ, "PYTHONPATH": str(PLANS.parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *PLAN_FLAGS["learn"][0], str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"repro: bad --fault-plan {path}: ")
        assert "Traceback" not in proc.stderr


class TestTrace:
    def test_renders_gantt(self, capsys):
        assert main(["trace", "trains", "--p", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rank 1" in out
        assert "busy fractions" in out

    def test_mpi_trace_out_builds_a_tracing_backend(self, tmp_path, capsys, monkeypatch):
        # A sim backend stands in for the MPI one (mpi4py may be absent);
        # --trace-out must reach the constructor.
        import repro.backend

        built = []

        def fake_make_backend(name, **kw):
            built.append((name, kw))
            bk = repro.backend.SimBackend(record_trace=kw.get("record_trace", False))
            bk.is_root = True
            return bk

        monkeypatch.setattr(repro.backend, "make_backend", fake_make_backend)
        out_file = tmp_path / "t.jsonl"
        argv = ["learn", "trains", "--p", "2", "--backend", "mpi", "--trace-out", str(out_file)]
        assert main(argv) == 0
        assert built == [("mpi", {"record_trace": True})]
        assert f"% wrote 16 spans to {out_file}" in capsys.readouterr().out


class TestTables:
    def test_table1_only(self, capsys):
        assert main(["tables", "--which", "1", "--datasets", "trains"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_small_matrix(self, capsys):
        rc = main(
            [
                "tables",
                "--which", "4,5",
                "--datasets", "trains",
                "--folds", "2",
                "--ps", "2",
                "--seed", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Table 5" in out

    @pytest.mark.parametrize(
        "flag,value,says",
        [
            ("--which", "7", "tables 1-6, not [7]"),
            ("--which", "2,x", "comma-separated integers"),
            ("--datasets", "trains,nope", "unknown ['nope']"),
            ("--ps", "2,0", ">= 1, got 0"),
            ("--ps", "two", "comma-separated integers"),
        ],
    )
    def test_bad_arguments_exit_2_before_any_cell_runs(
        self, flag, value, says, capsys, monkeypatch
    ):
        import repro.experiments.runner as runner

        # reaching the matrix would now be an ImportError inside main()
        monkeypatch.delattr(runner, "run_matrix")
        argv = ["tables", "--which", "1,4", "--datasets", "trains", "--folds", "2", "--ps", "2"]
        assert main(argv + [flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro: ") and says in err and err.count("\n") == 1


class TestExport:
    def test_writes_problem_files(self, tmp_path, capsys):
        assert main(["export", "trains", str(tmp_path / "out"), "--seed", "1"]) == 0
        assert (tmp_path / "out" / "bk.pl").exists()
        assert (tmp_path / "out" / "pos.f").exists()
        assert (tmp_path / "out" / "neg.n").exists()
        assert (tmp_path / "out" / "modes.pl").exists()
        # the exported problem parses back to the dataset
        from repro.datasets import make_dataset
        from repro.ilp.modes import ModeSet
        from repro.logic.io import kb_to_prolog
        from repro.logic.parser import parse_program, term_to_str

        ds = make_dataset("trains", seed=1)
        out = tmp_path / "out"

        def heads(name):
            return [c.head for c in parse_program((out / name).read_text())]

        assert (out / "bk.pl").read_text() == kb_to_prolog(ds.kb)
        assert (heads("pos.f"), heads("neg.n")) == (list(ds.pos), list(ds.neg))
        modes = ModeSet([term_to_str(m) for m in heads("modes.pl")])
        assert list(map(str, modes)) == list(map(str, ds.modes))
        modes.validate()


class TestService:
    """Offline service verbs (the socket path is covered by tests/service)."""

    @pytest.fixture
    def populated_registry(self, tmp_path):
        from repro.service import JobSpec, TheoryRegistry, run_job

        outcome = run_job(JobSpec(dataset="trains", algo="mdie", seed=0))
        registry = TheoryRegistry(str(tmp_path / "reg"))
        for _ in range(2):
            registry.publish(
                "trains-th", outcome.theory, config_sig=outcome.config_sig,
                provenance={"dataset": "trains", "seed": "0", "scale": "small"},
            )
        return str(tmp_path / "reg")

    def test_registry_list_show_promote(self, populated_registry, capsys):
        assert main(["registry", "--registry-dir", populated_registry, "list"]) == 0
        assert "trains-th: versions [1, 2]" in capsys.readouterr().out
        assert main(["registry", "--registry-dir", populated_registry, "promote", "trains-th", "1"]) == 0
        capsys.readouterr()
        assert main(["registry", "--registry-dir", populated_registry, "show", "trains-th"]) == 0
        out = capsys.readouterr().out
        assert "trains-th v1" in out and "eastbound" in out

    def test_registry_diff(self, populated_registry, capsys):
        assert main(["registry", "--registry-dir", populated_registry, "diff", "trains-th", "1", "2"]) == 0
        assert "0 added, 0 removed" in capsys.readouterr().out

    def test_query_dataset_confusion(self, populated_registry, capsys):
        assert main(["query", "trains-th", "--registry-dir", populated_registry]) == 0
        out = capsys.readouterr().out
        assert "tp=" in out and "accuracy=" in out

    def test_query_examples_file(self, populated_registry, tmp_path, capsys):
        examples = tmp_path / "examples.txt"
        examples.write_text("% comment\neastbound(east1).\n\n")
        assert main([
            "query", "trains-th", "--registry-dir", populated_registry,
            "--examples", str(examples),
        ]) == 0
        assert "covered" in capsys.readouterr().out

    def test_jobs_unreachable_server_exits_cleanly(self, capsys):
        # Port 1 is never listening; the client must not traceback.
        assert main(["jobs", "status", "--port", "1"]) == 2
        assert "is `repro serve` running?" in capsys.readouterr().err
