"""Fault-recovery benchmark: overhead of surviving a worker crash.

For p ∈ {2, 4, 8} (sim backend, virtual time) this bench runs P²-MDIE:

* ``fault_free``  — no plan (the PR 3 fast path);
* ``supervised``  — fault-tolerance protocol on, nothing injected
  (heartbeat/timeout overhead in isolation);
* ``crash``       — one worker dies while processing its second
  ``start_pipeline`` task; the self-healing master detects it, rebuilds
  the lost logical worker by replay and reissues the lost pipelines;
* ``crash_standby`` — the same crash with one idle spare host that
  adopts the dead worker's shard.

Every scenario must learn the **identical theory** (asserted); the
report records the absolute and relative makespan overhead and the
communication volume.  One local-backend crash run (p=2, wall-clock)
additionally asserts cross-substrate recovery parity, and — where
mpi4py and ``mpiexec`` are available (the CI ``mpi-smoke`` job) — one
real MPI crash run (``mpiexec -n 4``, p=3) does the same over the wire;
without an MPI runtime that leg records itself as skipped.

Knobs:

* ``REPRO_FAULT_DATASET``  — dataset name (default ``krki``);
* ``REPRO_SCALE``          — ``small`` (default) or ``paper``;
* ``REPRO_SEED``           — RNG seed (default 0);
* ``REPRO_BENCH_SMOKE=1``  — CI smoke mode: trains dataset, p ∈ {2, 4},
  no local-backend leg skipping — parity is always asserted;
* ``REPRO_FAULT_TIMEOUT``  — detection timeout in (virtual) seconds
  (default 1.0).

Writes ``BENCH_fault_recovery.json`` at the repo root (all ``BENCH_*``
artifacts live there so the perf trajectory is trackable PR-over-PR).

Standalone: ``PYTHONPATH=src python benchmarks/bench_fault_recovery.py``.
Under the bench suite it runs as an ordinary test.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

from repro.backend import LocalProcessBackend
from repro.datasets import make_dataset
from repro.fault.plan import FaultPlan, WorkerCrash
from repro.parallel import run_p2mdie

DATASET = os.environ.get("REPRO_FAULT_DATASET", "krki")
SCALE = os.environ.get("REPRO_SCALE", "small")
SEED = int(os.environ.get("REPRO_SEED", "0"))
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
TIMEOUT = float(os.environ.get("REPRO_FAULT_TIMEOUT", "1.0"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_fault_recovery.json"

PS = (2, 4) if SMOKE else (2, 4, 8)


def _dataset():
    if SMOKE:
        return make_dataset("trains", seed=SEED)
    return make_dataset(DATASET, seed=SEED, scale=SCALE)


#: smoke runs single-epoch datasets, where only the first pipeline task
#: ever arrives; full runs crash mid-run (second epoch) instead.
CRASH_AT = 1 if SMOKE else 2


def _crash_plan(timeout: float = TIMEOUT) -> FaultPlan:
    """Worker 2 dies while processing its CRASH_AT-th start_pipeline."""
    return FaultPlan(
        crashes=(WorkerCrash(rank=2, on_recv=CRASH_AT, tag="start_pipeline"),), timeout=timeout
    )


def _summary(res) -> dict:
    return {
        "seconds": round(res.seconds, 6),
        "mbytes": round(res.mbytes, 6),
        "messages": res.comm.messages,
        "epochs": res.epochs,
        "theory_size": len(res.theory),
        "uncovered": res.uncovered,
        "recoveries": sum(1 for ev in res.fault_events if "declared dead" in ev),
        "cache_misses": res.cache_misses,
    }


def _mpi_leg() -> dict:
    """One real MPI crash-recovery run (mpiexec -n 4, p=3), or why not.

    Shells out to the same SPMD driver the FT matrix tests launch; on
    hosts without mpi4py/mpiexec the leg reports ``{"skipped": reason}``
    instead of failing, so the bench stays runnable everywhere.
    """
    from repro.backend.mpi import mpi_available

    if not mpi_available():
        return {"skipped": "mpi4py not importable"}
    if shutil.which("mpiexec") is None:
        return {"skipped": "mpiexec not on PATH"}

    name = "trains" if SMOKE else DATASET
    ds = make_dataset(name, seed=0)  # the driver builds datasets with seed=0
    base = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=3, width=10, seed=SEED)
    plan = _crash_plan(timeout=max(TIMEOUT, 2.0))
    driver = ROOT / "tests" / "fault" / "mpi_driver.py"
    with tempfile.TemporaryDirectory() as td:
        plan_path = pathlib.Path(td) / "plan.json"
        plan_path.write_text(plan.to_json())
        out = pathlib.Path(td) / "out.json"
        cmd = [
            "mpiexec", "-n", "4", sys.executable, str(driver),
            "--dataset", name, "--p", "3", "--seed", str(SEED),
            "--plan", str(plan_path), "--out", str(out),
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, env=env)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return {"skipped": f"mpiexec run failed: {proc.stderr[-500:]}"}
        got = json.loads(out.read_text())
    return {
        "wall_s": round(wall, 4),
        "parity": sorted(got["theory"]) == sorted(str(c) for c in base.theory),
        "recoveries": sum(1 for ev in got["fault_events"] if "declared dead" in ev),
        "n_ranks": 4,
    }


def run_benchmark() -> dict:
    ds = _dataset()
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    per_p: dict = {}
    parity = True
    for p in PS:
        base = run_p2mdie(*args, p=p, width=10, seed=SEED)
        theory = sorted(str(c) for c in base.theory)
        scenarios = {
            "fault_free": base,
            "supervised": run_p2mdie(
                *args, p=p, width=10, seed=SEED,
                fault_plan=FaultPlan(supervise=True, timeout=TIMEOUT),
            ),
            "crash": run_p2mdie(*args, p=p, width=10, seed=SEED, fault_plan=_crash_plan()),
            "crash_standby": run_p2mdie(
                *args, p=p, width=10, seed=SEED, fault_plan=_crash_plan(), spares=1
            ),
        }
        row: dict = {}
        for name, res in scenarios.items():
            row[name] = _summary(res)
            same = sorted(str(c) for c in res.theory) == theory
            row[name]["parity"] = same
            parity = parity and same
            row[name]["overhead"] = (
                round(res.seconds / base.seconds - 1.0, 4) if base.seconds else 0.0
            )
        per_p[str(p)] = row

    # Cross-substrate: the local backend must recover to the same theory.
    ds_local = ds
    base2 = run_p2mdie(
        ds_local.kb, ds_local.pos, ds_local.neg, ds_local.modes, ds_local.config,
        p=2, width=10, seed=SEED,
    )
    local = run_p2mdie(
        ds_local.kb, ds_local.pos, ds_local.neg, ds_local.modes, ds_local.config,
        p=2, width=10, seed=SEED,
        fault_plan=_crash_plan(timeout=max(TIMEOUT, 2.0)),
        backend=LocalProcessBackend(timeout=600.0),
    )
    local_parity = sorted(str(c) for c in local.theory) == sorted(str(c) for c in base2.theory)
    parity = parity and local_parity

    # Real cluster substrate: skipped (with a reason) when no MPI runtime.
    mpi = _mpi_leg()
    if "skipped" not in mpi:
        parity = parity and mpi["parity"]

    return {
        "dataset": ds.name,
        "scale": SCALE,
        "seed": SEED,
        "timeout": TIMEOUT,
        "n_pos": len(ds.pos),
        "n_neg": len(ds.neg),
        "ps": list(PS),
        "sim": per_p,
        "local_crash_p2": {
            "wall_s": round(local.seconds, 4),
            "parity": local_parity,
            "recoveries": sum(1 for ev in local.fault_events if "declared dead" in ev),
        },
        "mpi_crash_p3": mpi,
        "parity": parity,
    }


def render(report: dict) -> str:
    lines = [
        f"Fault recovery — P²-MDIE on {report['dataset']} "
        f"({report['n_pos']}+/{report['n_neg']}-, seed {report['seed']}, "
        f"detect timeout {report['timeout']}s)",
        f"{'p':>3}  {'scenario':<14} {'virtual s':>10} {'overhead':>9} {'MB':>8} {'parity':>6}",
    ]
    for p in report["ps"]:
        for name, r in report["sim"][str(p)].items():
            lines.append(
                f"{p:>3}  {name:<14} {r['seconds']:>10.3f} {r['overhead']:>8.1%} "
                f"{r['mbytes']:>8.3f} {str(r['parity']):>6}"
            )
    lc = report["local_crash_p2"]
    lines.append(
        f"local backend crash (p=2): {lc['wall_s']:.2f}s wall, "
        f"{lc['recoveries']} recovery, parity {'ok' if lc['parity'] else 'MISMATCH'}"
    )
    mpi = report["mpi_crash_p3"]
    if "skipped" in mpi:
        lines.append(f"mpi backend crash (p=3): skipped — {mpi['skipped']}")
    else:
        lines.append(
            f"mpi backend crash (p=3, mpiexec -n {mpi['n_ranks']}): {mpi['wall_s']:.2f}s wall, "
            f"{mpi['recoveries']} recovery, parity {'ok' if mpi['parity'] else 'MISMATCH'}"
        )
    return "\n".join(lines)


def write_report(report: dict) -> pathlib.Path:
    from bench_meta import write_bench_json

    return write_bench_json(OUT_PATH, report, SMOKE)


def check(report: dict) -> None:
    assert report["parity"], "fault recovery changed the learned theory!"
    for p in report["ps"]:
        crash = report["sim"][str(p)]["crash"]
        assert crash["recoveries"] >= 1, f"p={p}: crash scenario recovered nothing"


def test_fault_recovery():
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
