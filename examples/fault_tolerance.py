#!/usr/bin/env python
"""Fault tolerance & elasticity demo on the KRK-illegal endgame task.

Runs P²-MDIE fault-free, then under increasingly hostile conditions —
a mid-run worker crash, the same crash with a standby host, a straggler,
and an elastic join — and shows that every run learns the *identical*
theory: the self-healing protocol rebuilds lost workers by deterministic
replay, so faults cost time and bytes, never results.

Each plan goes through the JSON file that ``repro learn --fault-plan``
reads.
Also demonstrates epoch checkpointing and bit-identical resumption.

Run:  python examples/fault_tolerance.py [--p 3] [--backend sim|local]
"""

import argparse
import glob
import os
import tempfile

from repro.datasets import make_dataset
from repro.fault.checkpoint import load_checkpoint
from repro.fault.plan import FaultPlan, Straggler, WorkerCrash, WorkerJoin
from repro.parallel import run_p2mdie
from repro.util.fmt import render_table


def through_file(plan: FaultPlan, p: int, spares: int) -> FaultPlan:
    """``plan`` as ``repro learn --fault-plan`` reads it: saved as JSON,
    then loaded back with its ranks checked against the pool."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "plan.json")
        plan.save(path)
        return FaultPlan.load(path, p=p, spares=spares)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--backend", default="sim", choices=("sim", "local"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ds = make_dataset("krki", seed=args.seed)
    run_kw = dict(p=args.p, width=10, seed=args.seed, backend=args.backend)
    problem = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)

    crash = WorkerCrash(rank=2, on_recv=2, tag="start_pipeline")
    scenarios = {
        "fault-free": (None, 0),
        "worker 2 crashes": (FaultPlan(crashes=(crash,), timeout=2.0), 0),
        "crash + standby": (FaultPlan(crashes=(crash,), timeout=2.0), 1),
        "straggler 5x": (FaultPlan(stragglers=(Straggler(rank=1, factor=5.0),), timeout=60.0), 0),
        "elastic join": (
            FaultPlan(joins=(WorkerJoin(rank=args.p + 1, epoch=2),), timeout=2.0),
            1,
        ),
    }

    base_theory = None
    rows = []
    for name, (plan, spares) in scenarios.items():
        if plan is not None:
            plan = through_file(plan, args.p, spares)
        res = run_p2mdie(*problem, fault_plan=plan, spares=spares, **run_kw)
        if base_theory is None:
            base_theory = res.theory
        rows.append(
            [
                name,
                f"{res.seconds:.2f}",
                f"{res.mbytes:.3f}",
                str(len(res.theory)),
                "identical" if res.theory == base_theory else "DIFFERENT!",
                str(sum(1 for ev in res.fault_events if "declared dead" in ev)),
            ]
        )
        for ev in res.fault_events:
            print(f"    [{name}] {ev}")

    print()
    print(
        render_table(
            ["scenario", "seconds", "MB", "clauses", "theory", "recoveries"], rows
        )
    )

    # -- checkpoint / resume -----------------------------------------------------
    ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    full = run_p2mdie(*problem, checkpoint_dir=ckpt_dir, **run_kw)
    first = sorted(glob.glob(os.path.join(ckpt_dir, "*.ckpt")))[0]
    state = load_checkpoint(first)
    resumed = run_p2mdie(*problem, resume=state, **run_kw)
    print(
        f"\nresume from {os.path.basename(first)} (epoch {state.epoch}): "
        f"theory {'identical' if resumed.theory == full.theory else 'DIFFERENT!'} "
        f"to the uninterrupted run"
    )


if __name__ == "__main__":
    main()
