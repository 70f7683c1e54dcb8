"""Wiring check of the benchmark: ``python -m pytest bench -q`` (< 60 s).

Not collected by the tier-1 run (``testpaths = ["tests"]``).  ``--smoke``
runs one unit / one server instance with 1-s phases, so these tests say
nothing about speed: they pin that every workload and metric named in
``BENCHMARK.json`` is printed, with its unit and a finite value, that no
operation fails, and that a wrong golden theory is noticed.
"""

import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args):
    proc = subprocess.run(
        [*SPEC["command"], "--smoke", *args], cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def check_line(line, kind):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    for name, m in line["metrics"].items():
        assert math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_those_declared(workload):
    proc, line = run_bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_line(line, "end_to_end")
    for name, m in line["metrics"].items():
        assert m["value"] > 0, name


def test_per_layer_metrics_are_those_declared():
    proc, line = run_bench("--workload", "serve_small", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_line(line, "per_layer")
    assert (ROOT / "bench" / "out" / "trace-serve_small.jsonl").stat().st_size > 0


def test_workload_names_match_the_code():
    listed = subprocess.run(
        [*SPEC["command"], "--help"], cwd=ROOT, capture_output=True, text=True, timeout=60,
    ).stdout
    for workload in WORKLOADS:
        assert workload in listed


def test_wrong_golden_fails_every_unit(tmp_path):
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    golden["learn_seq"]["clauses"][0] = golden["learn_seq"]["clauses"][0].replace("elem", "mele")
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden))
    proc, line = run_bench("--workload", "learn_seq", "--golden", str(wrong))
    assert proc.returncode != 0
    assert line["correct"] is False
    # set-up units do not learn; every learning unit must have failed
    assert line["failed"] == line["attempted"] - 1
