"""Coverage-kernel benchmark: seed (legacy) kernel vs the overhauled one.

Runs sequential MDIE twice on the same dataset and seed:

* ``legacy`` — the seed engine kernel: recursive SLD interpreter,
  first-argument indexing (``coverage_kernel="legacy"``);
* ``new``    — the overhauled kernel: iterative goal-stack machine,
  ground-goal memo table, selectivity-chosen multi-argument indexing.

Both runs must learn the identical theory; the benchmark reports engine
operations and wall-clock seconds plus the speedups, and writes
``BENCH_coverage_kernel.json`` at the repo root (all ``BENCH_*`` artifacts
live there so the perf trajectory is trackable PR-over-PR).

Knobs:

* ``REPRO_KERNEL_DATASET``  — dataset name (default ``carcinogenesis``);
* ``REPRO_SCALE``           — ``small`` (default) or ``paper``;
* ``REPRO_SEED``            — RNG seed (default 0);
* ``REPRO_BENCH_SMOKE=1``   — CI smoke mode: reduced example counts, no
  speedup assertion (shared runners are too noisy for wall-clock gates);
* ``REPRO_COVERAGE_KERNEL`` — the same env switch the library honours, so
  the old path stays measurable in any other benchmark or run as well.

Standalone: ``PYTHONPATH=src python benchmarks/bench_coverage_kernel.py``.
Under the bench suite it runs as an ordinary test.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.datasets import make_dataset
from repro.ilp.mdie import mdie

DATASET = os.environ.get("REPRO_KERNEL_DATASET", "carcinogenesis")
SCALE = os.environ.get("REPRO_SCALE", "small")
SEED = int(os.environ.get("REPRO_SEED", "0"))
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROOT = pathlib.Path(__file__).resolve().parent.parent

VARIANTS = {
    "legacy": dict(coverage_kernel="legacy"),
    "new": dict(coverage_kernel="new"),
}


def _dataset():
    kw: dict = dict(seed=SEED, scale=SCALE)
    if SMOKE:
        kw = dict(seed=SEED, n_pos=24, n_neg=20) if DATASET == "carcinogenesis" else dict(seed=SEED, n_pos=24, n_neg=24)
    return make_dataset(DATASET, **kw)


def run_benchmark() -> dict:
    ds = _dataset()
    results = {}
    for name, overrides in VARIANTS.items():
        config = ds.config.replace(**overrides)
        t0 = time.perf_counter()
        res = mdie(ds.kb, ds.pos, ds.neg, ds.modes, config, seed=SEED)
        wall = time.perf_counter() - t0
        results[name] = {
            "wall_s": round(wall, 4),
            "ops": res.ops,
            "epochs": res.epochs,
            "uncovered": res.uncovered,
            "theory_size": len(res.theory),
            "theory": sorted(str(c) for c in res.theory),
        }
    legacy, new = results["legacy"], results["new"]
    report = {
        "dataset": ds.name,
        "scale": SCALE,
        "seed": SEED,
        "smoke": SMOKE,
        "n_pos": len(ds.pos),
        "n_neg": len(ds.neg),
        "legacy": legacy,
        "new": new,
        "speedup": {
            "ops": round(legacy["ops"] / new["ops"], 3) if new["ops"] else float("inf"),
            "wall": round(legacy["wall_s"] / new["wall_s"], 3) if new["wall_s"] else float("inf"),
        },
        "parity": legacy["theory"] == new["theory"]
        and legacy["epochs"] == new["epochs"]
        and legacy["uncovered"] == new["uncovered"],
    }
    return report


def render(report: dict) -> str:
    lines = [
        f"Coverage kernel — sequential MDIE on {report['dataset']} "
        f"({report['n_pos']}+/{report['n_neg']}-, seed {report['seed']}"
        f"{', smoke' if report['smoke'] else ''})",
        f"{'kernel':>8}  {'wall s':>9}  {'engine ops':>12}  {'epochs':>6}  {'clauses':>7}",
    ]
    for name in ("legacy", "new"):
        r = report[name]
        lines.append(
            f"{name:>8}  {r['wall_s']:>9.3f}  {r['ops']:>12}  {r['epochs']:>6}  {r['theory_size']:>7}"
        )
    sp = report["speedup"]
    lines.append(f"speedup: {sp['wall']:.2f}x wall-clock, {sp['ops']:.2f}x engine ops")
    lines.append(f"parity: {'identical theories' if report['parity'] else 'MISMATCH'}")
    return "\n".join(lines)


def write_report(report: dict) -> pathlib.Path:
    from bench_meta import write_bench_json

    return write_bench_json(ROOT / "BENCH_coverage_kernel.json", report, SMOKE)


def check(report: dict) -> None:
    assert report["parity"], "kernel parity violated: theories differ between legacy and new"
    if not SMOKE:
        sp = report["speedup"]
        # Kernel only: coverage inheritance runs on both sides now (its
        # off-switch is retired), so the old combined 2x gate no longer
        # applies; the kernel alone measured 1.55x (small) / 1.79x (paper).
        assert max(sp["ops"], sp["wall"]) >= 1.25, f"kernel speedup below 1.25x: {sp}"


def test_coverage_kernel():
    report = run_benchmark()
    print("\n" + render(report) + "\n")
    write_report(report)
    check(report)


if __name__ == "__main__":
    report = run_benchmark()
    print(render(report))
    path = write_report(report)
    print(f"wrote {path}")
    check(report)
