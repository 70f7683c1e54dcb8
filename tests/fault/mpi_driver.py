"""SPMD driver for the MPI legs of the fault-tolerance parity tests.

Launched under mpiexec (``mpiexec -n <p+spares+1> python mpi_driver.py
--p 3 ...``) by tests/fault/test_ft_matrix.py and the CI mpi-smoke job;
every rank makes the same :func:`repro.parallel.run_p2mdie` call and
rank 0 writes a JSON report (theory, epoch log, fault observability,
communication totals) for the launching test to compare against the
fault-free sim baseline.
"""

import argparse
import json
import sys


def report(res) -> dict:
    return {
        "theory": [str(r) for r in res.theory],
        "log": [
            [log.epoch, log.bag_size, [str(c) for c in log.accepted], log.pos_covered]
            for log in res.epoch_logs
        ],
        "fault_events": list(res.fault_events),
        "fault_log": [[f.kind, f.rank] for f in res.fault_log],
        "comm": {"messages": res.comm.messages, "bytes": res.comm.bytes_total},
    }


def main(argv=None) -> int:
    from repro.backend import make_backend
    from repro.datasets import make_dataset
    from repro.fault.plan import FaultPlan
    from repro.parallel import run_p2mdie

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="krki")
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--width", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spares", type=int, default=0)
    ap.add_argument("--plan", default=None, help="JSON fault-plan file")
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--resume-from", default=None, help=".ckpt file to resume from")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    ds = make_dataset(args.dataset, seed=0)
    plan = FaultPlan.load(args.plan, p=args.p, spares=args.spares) if args.plan else None
    backend = make_backend("mpi")
    resume = None
    if args.resume_from:
        from repro.fault.checkpoint import load_checkpoint

        resume = load_checkpoint(args.resume_from)
    res = run_p2mdie(
        ds.kb, ds.pos, ds.neg, ds.modes, ds.config,
        p=args.p, width=args.width, seed=args.seed,
        backend=backend, fault_plan=plan, spares=args.spares,
        checkpoint_dir=args.checkpoint_dir, resume=resume,
    )
    if backend.is_root:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report(res), fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
