"""Smoke tests: every shipped example must run to completion and print the
artifacts it promises (theories, speedups, tables)."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "sequential theory:" in out
    assert "p2-mdie theory" in out
    assert "accuracy" in out


def test_custom_dataset():
    out = run_example("custom_dataset.py")
    assert "grandparent" in out
    assert "speedup" in out


def test_mesh_width_ablation():
    out = run_example("mesh_width_ablation.py", "--p", "2")
    assert "nolimit" in out
    assert "train acc" in out


def test_pyrimidines_crossval_small():
    out = run_example("pyrimidines_crossval.py", "--folds", "2", "--p", "2")
    assert "paired t-test" in out
    assert "sequential:" in out


def test_carcinogenesis_speedup():
    out = run_example("carcinogenesis_speedup.py")
    assert "speedup" in out
    assert "pipeline activity" in out


def test_strategies_comparison():
    out = run_example("strategies_comparison.py")
    for strategy in ("sequential mdie", "p2-mdie (W=10)", "cov-parallel b=32", "independent"):
        assert strategy in out
    assert "best rules found by p2-mdie:" in out


def test_fault_tolerance():
    out = run_example("fault_tolerance.py", "--p", "2")
    assert "identical" in out
    assert "DIFFERENT" not in out
    assert "declared dead" in out
    assert "resume from" in out
