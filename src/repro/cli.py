"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``learn``    run sequential MDIE or P²-MDIE on a bundled dataset and print
             the learned theory plus run statistics;
``resume``   continue a checkpointed run bit-identically from a snapshot;
``faults``   run the fault-injection sweep (recovery overhead & parity);
``tables``   run the evaluation matrix and print any of the paper's tables;
``trace``    run one traced epoch and print the pipeline Gantt chart;
``export``   write a bundled dataset to Aleph-style Prolog files;
``serve``    run the learning-as-a-service front door (JSON-lines TCP);
``jobs``     client verbs against a running server: submit/status/cancel/wait;
``registry`` inspect/promote versioned theory artifacts on disk;
``query``    batched coverage queries against a registered theory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from repro.datasets import DATASETS, make_dataset
from repro.ilp import accuracy
from repro.logic.io import save_problem, theory_to_prolog
from repro.run import BACKEND_NAMES, RunMeta, refusal, run

__all__ = ["main", "build_parser"]


def _parse_width(s: str):
    return None if s in ("nolimit", "none") else int(s)


def _add_backend_arg(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="sim",
        help="execution substrate for parallel runs: 'sim' = deterministic "
        "discrete-event simulation in virtual time (default), 'local' = real "
        "multiprocessing workers with wall-clock timing, 'mpi' = real MPI "
        "cluster via mpi4py (launch under mpiexec). The learned theory is "
        "identical across backends for the same seed/config.",
    )


def _add_fault_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="JSON fault plan (crashes / stragglers / message drops / elastic "
        "joins) to inject; activates the self-healing protocol. The learned "
        "theory is identical to the fault-free run — only time and "
        "communication change. See repro.fault.plan.FaultPlan.",
    )
    sub_parser.add_argument(
        "--spares",
        type=int,
        default=0,
        help="standby worker hosts (ranks p+1..p+spares) provisioned for "
        "adoption after a crash or for elastic 'join' events",
    )
    sub_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="write a resumable snapshot of master learning state after every "
        "epoch (wire-codec .ckpt files; continue with `repro resume`)",
    )


def _load_plan(args):
    if args.fault_plan is None:
        return None
    from repro.fault.plan import FaultPlan

    try:
        # Rank validation happens here — a plan naming ranks outside
        # 1..p+spares fails at the CLI, not mid-run.
        return FaultPlan.load(args.fault_plan, p=args.p, spares=args.spares)
    except ValueError as exc:
        print(f"repro: bad fault plan {args.fault_plan}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _problem(name: str, *, seed: int, scale: str):
    """``make_dataset`` with the collector paused, then the heap frozen (if
    the caller froze none of it): no later pass here or in a forked rank
    walks the knowledge base.  :func:`main` restores the caller's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ds = make_dataset(name, seed=seed, scale=scale)
    finally:
        if enabled:
            gc.enable()
    if not gc.get_freeze_count():
        gc.freeze()
    return ds


def _cli_backend(args):
    """The backend to hand the run front-end: the name, or — for an
    ``mpiexec`` SPMD launch — a constructed MPI backend, tracing when
    ``--trace-out`` asks, with non-root ranks' stdout muted so the run
    narrates exactly once."""
    if args.backend != "mpi":
        return args.backend
    from repro.backend import make_backend

    backend = make_backend("mpi", record_trace=bool(args.trace_out))
    if not backend.is_root:
        sys.stdout = open(os.devnull, "w")
    return backend


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    # Shared by every subcommand: `repro learn ... --profile out.pstats`.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="profile the run with cProfile and write pstats data to PATH "
        "(inspect with `python -m pstats PATH` or snakeviz)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a theory on a bundled dataset", parents=[common])
    learn.add_argument("dataset", choices=sorted(DATASETS))
    learn.add_argument("--p", type=int, default=1, help="processors (1 = sequential MDIE)")
    learn.add_argument("--width", type=_parse_width, default=10, help="pipeline width or 'nolimit'")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--scale", choices=("small", "paper"), default="small")
    learn.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record per-stage activity spans and write them as JSONL "
        "(one span per line; render with `repro trace`-style tooling)",
    )
    _add_backend_arg(learn)
    _add_fault_args(learn)

    resume = sub.add_parser(
        "resume",
        help="continue a checkpointed run bit-identically",
        parents=[common],
        description="Continue a run from a .ckpt snapshot written by "
        "`repro learn --checkpoint-dir`. Dataset, scale, p and width are "
        "read back from the checkpoint metadata; the remaining epochs "
        "reproduce the uninterrupted run exactly.",
    )
    resume.add_argument("checkpoint", help="path to an epoch_NNNN.ckpt file")
    _add_backend_arg(resume)
    resume.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="keep checkpointing the continued run into DIR",
    )
    resume.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record per-stage activity spans and write them as JSONL",
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection sweep: recovery overhead and theory parity",
        parents=[common],
        description="Run each parallel strategy fault-free and under injected "
        "fault scenarios (worker crash, straggler, crash+standby), assert "
        "the learned theory is identical, and report the recovery overhead.",
    )
    faults.add_argument("--dataset", choices=sorted(DATASETS), default="trains")
    faults.add_argument("--ps", default="2,4")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--scale", choices=("small", "paper"), default="small")
    faults.add_argument(
        "--strategies",
        default="p2mdie",
        help="comma-separated subset of p2mdie,covpar,independent",
    )
    faults.add_argument(
        "--timeout", type=float, default=2.0, help="failure-detection timeout (seconds)"
    )
    _add_backend_arg(faults)

    tables = sub.add_parser(
        "tables", help="run the evaluation matrix and print paper tables", parents=[common]
    )
    tables.add_argument("--which", default="2,3,4,5,6", help="comma-separated table numbers (1-6)")
    tables.add_argument("--datasets", default="carcinogenesis,mesh,pyrimidines")
    tables.add_argument("--folds", type=int, default=3)
    tables.add_argument("--ps", default="2,4,8")
    tables.add_argument("--seed", type=int, default=0)
    tables.add_argument("--scale", choices=("small", "paper"), default="small")
    _add_backend_arg(tables)

    trace = sub.add_parser(
        "trace", help="render one epoch's pipeline activity (Figs. 3-4)", parents=[common]
    )
    trace.add_argument("dataset", choices=sorted(DATASETS))
    trace.add_argument("--p", type=int, default=3)
    trace.add_argument("--width", type=_parse_width, default=10)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--scale", choices=("small", "paper"), default="small")
    trace.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the spans as JSONL (one span per line)",
    )
    _add_backend_arg(trace)

    export = sub.add_parser(
        "export", help="write a dataset as Aleph-style Prolog files", parents=[common]
    )
    export.add_argument("dataset", choices=sorted(DATASETS))
    export.add_argument("directory")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--scale", choices=("small", "paper"), default="small")

    serve_p = sub.add_parser(
        "serve",
        help="run the learning-as-a-service front door",
        parents=[common],
        description="Serve learning jobs and batched coverage queries over a "
        "JSON-lines TCP socket (one JSON request per line, one JSON response "
        "per line).  Jobs run concurrently over --slots worker slots; learned "
        "theories are published to --registry-dir and served to queries.  "
        "Stop with a {\"op\": \"shutdown\"} request or Ctrl-C.",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7341, help="0 = ephemeral")
    serve_p.add_argument("--slots", type=int, default=2, help="concurrent learning jobs")
    serve_p.add_argument(
        "--state-dir", default=None,
        help="durable job records + checkpoints (enables restart recovery)",
    )
    serve_p.add_argument(
        "--registry-dir", default=None,
        help="theory registry root (enables register_as and query ops)",
    )
    serve_p.add_argument(
        "--auth-token", default=None, metavar="TOKEN",
        help="require clients to authenticate with this token (hello op)",
    )
    serve_p.add_argument(
        "--max-jobs-per-client", type=int, default=0, metavar="N",
        help="reject submits from clients with N active jobs already (0 = unlimited)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="shed submits once N jobs are queued (0 = unbounded)",
    )
    serve_p.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help="shed requests once N are executing (0 = unbounded)",
    )
    serve_p.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="service fault plan JSON to inject (chaos testing)",
    )
    serve_p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text metrics over plain HTTP on PORT "
        "(0 = ephemeral; scrape with `curl http://host:PORT/metrics`)",
    )
    serve_p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="append one JSONL span per handled request to FILE",
    )

    jobs_p = sub.add_parser(
        "jobs", help="client verbs against a running `repro serve`"
    )
    # --host/--port live on the leaf subcommands (not on `jobs` itself):
    # argparse classifies every argv token against the active parser's
    # option table before subcommand dispatch, so a `jobs`-level --port
    # would make the leaf-level `--p` ambiguous (--port/--profile).
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7341)
    client.add_argument("--token", default=None, help="server auth token")
    client.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry shed/reset requests up to N times (capped backoff + jitter)",
    )
    jobs_sub = jobs_p.add_subparsers(dest="jobs_command", required=True)
    js = jobs_sub.add_parser("submit", help="queue one learning job", parents=[common, client])
    js.add_argument("dataset", choices=sorted(DATASETS))
    js.add_argument("--algo", choices=("mdie", "p2mdie", "covpar", "independent"), default="mdie")
    js.add_argument("--p", type=int, default=1)
    js.add_argument("--seed", type=int, default=0)
    js.add_argument("--scale", choices=("small", "paper"), default="small")
    js.add_argument("--backend", choices=BACKEND_NAMES, default="sim")
    js.add_argument("--priority", type=int, default=0, help="higher runs first")
    js.add_argument("--preemptible", action="store_true",
                    help="run in epoch chunks (cancellable mid-run, crash-resumable)")
    js.add_argument("--register-as", default=None, metavar="NAME",
                    help="publish the learned theory to the server's registry")
    js.add_argument("--wait", action="store_true", help="block until the job finishes")
    js.add_argument(
        "--idempotency-key", default=None, metavar="KEY",
        help="dedup key: resubmitting with the same key never duplicates the job "
        "(generated automatically when --retries is set)",
    )
    jst = jobs_sub.add_parser(
        "status", help="status of one job (or all jobs)", parents=[common, client]
    )
    jst.add_argument("job", nargs="?", default=None)
    jc = jobs_sub.add_parser(
        "cancel", help="cancel a queued or preemptible running job", parents=[common, client]
    )
    jc.add_argument("job")
    jw = jobs_sub.add_parser(
        "wait", help="block until a job reaches a terminal state", parents=[common, client]
    )
    jw.add_argument("job")
    jw.add_argument("--timeout", type=float, default=None)
    jg = jobs_sub.add_parser(
        "gc", help="drop old finished jobs from the server", parents=[common, client]
    )
    jg.add_argument(
        "--keep", type=int, default=0,
        help="retain the newest N terminal jobs (default: drop all)",
    )
    jobs_sub.add_parser(
        "shutdown", help="stop the server (running jobs park/finish)",
        parents=[common, client],
    )

    reg_p = sub.add_parser(
        "registry", help="inspect/promote theory artifacts on disk", parents=[common]
    )
    reg_p.add_argument("--registry-dir", required=True, metavar="DIR")
    reg_sub = reg_p.add_subparsers(dest="registry_command", required=True)
    reg_sub.add_parser("list", help="all names, versions and promotions")
    rshow = reg_sub.add_parser("show", help="one record: theory + provenance")
    rshow.add_argument("name")
    rshow.add_argument("--version", type=int, default=None)
    rdiff = reg_sub.add_parser("diff", help="clause diff between two versions")
    rdiff.add_argument("name")
    rdiff.add_argument("old", type=int)
    rdiff.add_argument("new", type=int)
    rprom = reg_sub.add_parser("promote", help="bless a version as the served default")
    rprom.add_argument("name")
    rprom.add_argument("version", type=int)
    rgc = reg_sub.add_parser("gc", help="drop old versions of a theory")
    rgc.add_argument("name")
    rgc.add_argument(
        "--keep", type=int, default=1,
        help="retain the newest N versions (the promoted one always survives)",
    )

    query_p = sub.add_parser(
        "query",
        help="batched coverage queries against a registered theory",
        parents=[common],
        description="Classify ground examples under a registered theory "
        "(offline — reads the registry directly; no server needed).  "
        "Examples come from --examples (one term per line) or default to "
        "the theory's training dataset (reports confusion counts).",
    )
    query_p.add_argument("name", help="registered theory name")
    query_p.add_argument("--registry-dir", required=True, metavar="DIR")
    query_p.add_argument("--version", type=int, default=None)
    query_p.add_argument(
        "--examples", default=None, metavar="FILE",
        help="file with one ground term per line ('-' = stdin)",
    )

    load_p = sub.add_parser(
        "loadgen",
        help="drive query traffic at a running server; report percentiles",
        parents=[common, client],
        description="Open-loop load generation against a running `repro "
        "serve`: fire query batches on a deterministic arrival schedule "
        "(uniform, burst, or heavy-tail) and report p50/p95/p99 latency "
        "measured from each request's scheduled send time, so server "
        "backlog shows up as tail latency.  Examples are drawn from the "
        "named dataset's pos+neg pool, cycled to --batch.",
    )
    load_p.add_argument(
        "theory", nargs="?", default=None,
        help="registered theory name to query (omitted with --chaos, "
        "which self-hosts and learns its own)",
    )
    load_p.add_argument("--dataset", choices=sorted(DATASETS), default="trains")
    load_p.add_argument("--seed", type=int, default=0)
    load_p.add_argument("--scale", choices=("small", "paper"), default="small")
    load_p.add_argument("--batch", type=int, default=100, help="examples per request")
    load_p.add_argument("--requests", type=int, default=50, metavar="N")
    load_p.add_argument("--rate", type=float, default=20.0, help="target requests/s")
    load_p.add_argument(
        "--pattern", choices=("uniform", "burst", "heavytail"), default="uniform"
    )
    load_p.add_argument("--shards", type=int, default=0, help="spans per query (0 = one)")
    load_p.add_argument("--stream", action="store_true", help="use streaming queries")
    load_p.add_argument("--concurrency", type=int, default=8, help="client connections")
    load_p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline the server enforces end-to-end",
    )
    load_p.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="self-hosted chaos run: serve with this fault plan JSON, drive "
        "the workload twice (fault-free + chaos) and gate on parity, zero "
        "duplicated jobs and zero corrupt records",
    )
    load_p.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="write the full (chaos) report as JSON",
    )
    return ap


def _write_trace_out(path: str, trace) -> None:
    """Export a run's activity trace as a JSONL span file."""
    from repro.obs import write_spans_jsonl

    n = write_spans_jsonl(path, trace)
    print(f"% wrote {n} spans to {path}")


def _refused(reason) -> bool:
    if reason:
        print(f"repro: {reason}", file=sys.stderr)
    return bool(reason)


def _report(ds, outcome, header: str) -> None:
    """Score a finished run on its training set and print it: theory,
    statistics, then a parallel run's cache and fault narrative."""
    acc = accuracy(ds.config.make_engine(ds.kb), outcome.theory, ds.pos, ds.neg)
    print(theory_to_prolog(outcome.theory, header=header))
    if outcome.algo == "mdie":
        print(f"% epochs={outcome.epochs} ops={outcome.ops} uncovered={outcome.uncovered}")
    else:
        print(
            f"% epochs={outcome.epochs} comm={outcome.mbytes:.3f}MB "
            f"uncovered={outcome.uncovered}"
        )
    print(f"% {outcome.clock}-time={outcome.seconds:.1f}s training-accuracy={acc:.1f}%")
    if outcome.algo == "mdie":
        return
    total = outcome.cache_hits + outcome.cache_misses
    rate = (100.0 * outcome.cache_hits / total) if total else 0.0
    print(
        f"% eval-cache: hits={outcome.cache_hits} misses={outcome.cache_misses} "
        f"({rate:.1f}% hit rate)"
    )
    for line in outcome.fault_events:
        print(f"% fault: {line}")
    for rec in outcome.fault_log:
        print(f"% injected: {rec}")


def _cmd_learn(args) -> int:
    algo = "mdie" if args.p == 1 else "p2mdie"
    if _refused(refusal(
        algo, args.p, fault_plan=args.fault_plan is not None, spares=args.spares,
        trace=bool(args.trace_out),
    )):
        return 2
    plan = _load_plan(args)
    # p == 1 is the sequential path: no backend is ever constructed.
    backend = args.backend if args.p == 1 else _cli_backend(args)
    ds = _problem(args.dataset, seed=args.seed, scale=args.scale)
    print(f"% dataset {ds.name}: |E+|={ds.n_pos} |E-|={ds.n_neg}")
    outcome = run(
        ds, algo, p=args.p, width=args.width, seed=args.seed, backend=backend,
        scale=args.scale, record_trace=bool(args.trace_out), fault_plan=plan,
        spares=args.spares, checkpoint_dir=args.checkpoint_dir,
    )
    _report(ds, outcome, f"learned by {'mdie' if algo == 'mdie' else 'p2-mdie'}")
    if args.trace_out:
        _write_trace_out(args.trace_out, outcome.trace)
    if args.checkpoint_dir:
        print(f"% checkpoints in {args.checkpoint_dir}/ (continue with `repro resume`)")
    return 0


def _cmd_resume(args) -> int:
    from repro.fault.checkpoint import load_checkpoint

    backend = _cli_backend(args)  # mutes non-root ranks before any output
    state = load_checkpoint(args.checkpoint)
    try:
        meta = RunMeta.read(state)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if _refused(refusal(state.algo, checkpoint=True)):
        return 2
    ds = _problem(meta.dataset, seed=state.seed, scale=meta.scale)
    print(
        f"% resuming {state.algo} on {meta.dataset} from epoch {state.epoch} "
        f"({state.remaining} positives uncovered)"
    )
    no_trace = refusal(state.algo, trace=True)
    outcome = run(
        ds, state.algo, p=meta.p, width=meta.width, seed=state.seed,
        backend=backend, scale=meta.scale, resume=state,
        record_trace=bool(args.trace_out) and not no_trace,
        checkpoint_dir=args.checkpoint_dir,
    )
    _report(ds, outcome, f"resumed {state.algo}")
    if args.trace_out:
        if outcome.trace:
            _write_trace_out(args.trace_out, outcome.trace)
        else:
            print(
                f"repro: --trace-out: {no_trace or 'this resume recorded no activity trace'}",
                file=sys.stderr,
            )
    return 0


def _cmd_faults(args) -> int:
    from repro.experiments.faultsweep import render_fault_sweep, run_fault_sweep

    ps = tuple(int(x) for x in args.ps.split(","))
    strategies = tuple(args.strategies.split(","))
    records = run_fault_sweep(
        dataset=args.dataset,
        ps=ps,
        strategies=strategies,
        seed=args.seed,
        scale=args.scale,
        backend=args.backend,
        timeout=args.timeout,
    )
    print(render_fault_sweep(records))
    bad = [r for r in records if not r.parity]
    if bad:
        print(f"repro: {len(bad)} scenario(s) broke theory parity!", file=sys.stderr)
        return 1
    return 0


def _cmd_tables(args) -> int:
    names = tuple(args.datasets.split(","))
    try:
        which = {int(x) for x in args.which.split(",")}
        ps = tuple(int(x) for x in args.ps.split(","))
    except ValueError as exc:
        print(f"repro: --which and --ps take comma-separated integers ({exc})", file=sys.stderr)
        return 2
    no_table = sorted(which - set(range(1, 7)))
    no_dataset = sorted(set(names) - set(DATASETS))
    error = None
    if no_table:
        error = f"--which names tables 1-6, not {no_table}"
    elif no_dataset:
        error = f"--datasets: unknown {no_dataset}; choose from {sorted(DATASETS)}"
    elif min(ps) < 1:
        error = f"--ps must all be >= 1, got {min(ps)}"
    if error:
        print(f"repro: {error}", file=sys.stderr)
        return 2

    from repro.experiments.runner import run_matrix
    from repro.experiments.tables import (
        table1_datasets,
        table2_speedup,
        table3_times,
        table4_communication,
        table5_epochs,
        table6_accuracy,
    )

    status = 0
    if 1 in which:
        datasets = [_problem(n, seed=args.seed, scale=args.scale) for n in names]
        print(table1_datasets(datasets) + "\n")
    if which - {1}:
        matrix = run_matrix(
            dataset_names=names, ps=ps, k_folds=args.folds, scale=args.scale,
            seed=args.seed, backend=args.backend,
        )
        renderers = {
            2: table2_speedup,
            3: table3_times,
            4: table4_communication,
            5: table5_epochs,
            6: table6_accuracy,
        }
        for n in sorted(which - {1}):
            try:
                print(renderers[n](matrix, ps=ps) + "\n")
            except ValueError as exc:  # Tables 2 and 3 refuse mixed clocks
                print(f"repro: {exc}", file=sys.stderr)
                status = 2
    return status


def _cmd_trace(args) -> int:
    from repro.experiments.trace import occupancy, render_gantt, stage_summary

    ds = _problem(args.dataset, seed=args.seed, scale=args.scale)
    res = run(
        ds, "p2mdie", p=args.p, width=args.width, seed=args.seed, backend=args.backend,
        scale=args.scale, record_trace=True, max_epochs=1,
    )
    print(render_gantt(res.trace, width=100, t_end=res.seconds))
    occ = occupancy(res.trace, res.seconds)
    print("busy fractions:", "  ".join(f"rank{r}={f:.2f}" for r, f in occ.items()))
    stats = stage_summary(res.trace)
    if stats:
        label_w = max(len(s.label) for s in stats)
        print("stage summary:")
        for s in stats:
            print(f"  {s.label:<{label_w}}  n={s.count:<4d} busy={s.total_seconds:.3f}s")
    if args.trace_out:
        _write_trace_out(args.trace_out, res.trace)
    return 0


def _cmd_export(args) -> int:
    ds = make_dataset(args.dataset, seed=args.seed, scale=args.scale)
    save_problem(args.directory, ds.kb, ds.pos, ds.neg, modes=list(ds.modes))
    print(f"wrote {ds.name} ({ds.n_pos}+/{ds.n_neg}-) to {args.directory}/")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    fault_plan = None
    if args.fault_plan:
        from repro.fault.service import ServiceFaultPlan

        try:
            fault_plan = ServiceFaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro: bad --fault-plan: {exc}", file=sys.stderr)
            return 2

    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(rank=0, sink=args.trace_out)

    def announce(server) -> None:
        auth = "on" if args.auth_token else "off"
        chaos = " CHAOS" if fault_plan is not None else ""
        metrics = (
            f", metrics=:{server.metrics_bound_port}"
            if server.metrics_bound_port is not None
            else ""
        )
        print(
            f"% serving on {args.host}:{server.port} "
            f"(slots={args.slots}, registry={args.registry_dir or 'off'}, "
            f"auth={auth}{metrics}){chaos}"
        )
        sys.stdout.flush()

    try:
        serve(
            host=args.host, port=args.port, slots=args.slots,
            state_dir=args.state_dir, registry_dir=args.registry_dir,
            ready=announce,
            auth_token=args.auth_token,
            max_jobs_per_client=args.max_jobs_per_client,
            max_queue=args.max_queue, max_inflight=args.max_inflight,
            fault_plan=fault_plan,
            metrics_port=args.metrics_port, tracer=tracer,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("% interrupted", file=sys.stderr)
    return 0


def _cmd_jobs(args) -> int:
    # Connection errors are mapped to a friendly message *here*, not in
    # main(): elsewhere a ConnectionError subclass is most likely a
    # BrokenPipeError from truncated stdout (`repro trace | head`), which
    # has nothing to do with the service.
    try:
        return _jobs_verbs(args)
    except ConnectionError as exc:
        print(
            f"repro: cannot reach the service ({exc}); is `repro serve` running?",
            file=sys.stderr,
        )
        return 2
    except TimeoutError as exc:
        print(f"repro: service request timed out ({exc})", file=sys.stderr)
        return 2


def _jobs_verbs(args) -> int:
    from repro.service.jobs import JobSpec
    from repro.service import ServiceClient

    with ServiceClient(
        host=args.host, port=args.port,
        token=args.token, retries=args.retries,
    ) as client:
        if args.jobs_command == "submit":
            spec = JobSpec(
                dataset=args.dataset, algo=args.algo, p=args.p, seed=args.seed,
                scale=args.scale, backend=args.backend, priority=args.priority,
                preemptible=args.preemptible, register_as=args.register_as,
            )
            job = client.submit(spec, idempotency_key=args.idempotency_key)
            print(f"% submitted {job}")
            if args.wait:
                resp = client.wait(job)
                return _print_job_response(resp)
            return 0
        if args.jobs_command == "status":
            if args.job is None:
                resp = client.request({"op": "jobs"})
                if not resp.get("ok"):
                    print(f"repro: {resp.get('error')}", file=sys.stderr)
                    return 1
                for rec in resp["jobs"]:
                    print(
                        f"{rec['job']}  {rec['state']:<10} {rec['spec']['algo']:<12}"
                        f"{rec['spec']['dataset']:<16} epochs={rec['epochs_done']}"
                    )
                return 0
            return _print_job_response(client.request({"op": "status", "job": args.job}))
        if args.jobs_command == "cancel":
            resp = client.request({"op": "cancel", "job": args.job})
            if not resp.get("ok"):
                print(f"repro: {resp.get('error')}", file=sys.stderr)
                return 1
            print(f"% cancelled={resp['cancelled']}")
            return 0 if resp["cancelled"] else 1
        if args.jobs_command == "shutdown":
            resp = client.request({"op": "shutdown"})
            print("% server shutting down")
            return 0 if resp.get("ok") else 1
        if args.jobs_command == "gc":
            resp = client.request({"op": "gc", "target": "jobs", "keep": args.keep})
            if not resp.get("ok"):
                print(f"repro: {resp.get('error')}", file=sys.stderr)
                return 1
            removed = resp["removed"]
            print(f"% removed {len(removed)} terminal job(s)"
                  + (f": {' '.join(removed)}" if removed else ""))
            return 0
        resp = client.wait(args.job, timeout=args.timeout)
        return _print_job_response(resp)


def _print_job_response(resp: dict) -> int:
    if not resp.get("ok"):
        print(f"repro: {resp.get('error')}", file=sys.stderr)
        return 1
    print(f"% {resp['job']}: {resp['state']} (epochs={resp['epochs_done']})")
    if resp.get("error"):
        print(f"% error: {resp['error']}")
    outcome = resp.get("outcome")
    if outcome:
        print(outcome["theory"])
        print(
            f"% epochs={outcome['epochs']} uncovered={outcome['uncovered']} "
            f"seconds={outcome['seconds']} training-accuracy={outcome['train_accuracy']}%"
        )
    return 0 if resp["state"] in ("done", "cancelled") else 1


def _cmd_registry(args) -> int:
    from repro.service.registry import TheoryRegistry

    try:
        return _registry_verbs(args, TheoryRegistry(args.registry_dir))
    except (ValueError, OSError) as exc:
        # RegistryError is a ValueError: unknown names/versions, corrupt
        # artifacts and unreadable dirs are user errors, not tracebacks.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _registry_verbs(args, reg) -> int:
    if args.registry_command == "list":
        names = reg.names()
        if not names:
            print("% registry is empty")
            return 0
        for name in names:
            versions = reg.versions(name)
            promoted = reg.promoted_version(name)
            mark = f" (promoted: v{promoted})" if promoted is not None else ""
            print(f"{name}: versions {versions}{mark}")
        return 0
    if args.registry_command == "show":
        record = reg.get(args.name, args.version)
        print(theory_to_prolog(record.to_theory(), header=f"{record.name} v{record.version}"))
        for k, v in record.provenance:
            print(f"% {k}={v}")
        return 0
    if args.registry_command == "diff":
        diff = reg.diff(args.name, args.old, args.new)
        for c in diff["added"]:
            print(f"+ {c}")
        for c in diff["removed"]:
            print(f"- {c}")
        print(
            f"% {len(diff['added'])} added, {len(diff['removed'])} removed, "
            f"{len(diff['unchanged'])} unchanged"
        )
        return 0
    if args.registry_command == "gc":
        removed = reg.gc(args.name, keep=args.keep)
        gone = ", ".join(f"v{v}" for v in removed) if removed else "nothing"
        print(f"% {args.name}: removed {gone} "
              f"(surviving versions: {reg.versions(args.name)})")
        return 0
    version = reg.promote(args.name, args.version)
    print(f"% promoted {args.name} v{version}")
    return 0


def _cmd_query(args) -> int:
    try:
        return _query_verb(args)
    except (ValueError, OSError) as exc:
        # RegistryError / ParseError are ValueErrors; a missing examples
        # file is an OSError — all expected user errors.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _query_verb(args) -> int:
    from repro.logic import parse_term
    from repro.service.query import QueryEngine
    from repro.service.registry import TheoryRegistry

    reg = TheoryRegistry(args.registry_dir)
    engine = QueryEngine(registry=reg)
    record = reg.get(args.name, args.version)
    if args.examples is not None:
        fh = sys.stdin if args.examples == "-" else open(args.examples, encoding="utf-8")
        with fh:
            examples = [
                parse_term(line.strip().rstrip("."))
                for line in fh
                if line.strip() and not line.lstrip().startswith("%")
            ]
        result = engine.query(args.name, examples, version=args.version)
        for example, hit in zip(examples, result.decisions()):
            print(f"{example}  {'+' if hit else '-'}")
        print(f"% covered {result.n_covered}/{result.n} (ops={result.ops})")
        return 0
    # Default: classify the training dataset and report confusion counts.
    # (dataset_for reads the service's one dataset cache, so the KB the
    # prepare step builds is not generated a second time here.)
    ds = engine.dataset_for(args.name, args.version)
    res_pos = engine.query(args.name, ds.pos, version=args.version)
    res_neg = engine.query(args.name, ds.neg, version=args.version)
    tp, fp = res_pos.n_covered, res_neg.n_covered
    fn, tn = res_pos.n - tp, res_neg.n - fp
    total = res_pos.n + res_neg.n
    print(f"% {record.name} v{record.version} on {ds.name}:")
    print(f"% tp={tp} fn={fn} tn={tn} fp={fp} accuracy={100.0 * (tp + tn) / total:.1f}%")
    return 0


def _cmd_loadgen(args) -> int:
    try:
        return _loadgen_run(args)
    except ConnectionError as exc:
        print(
            f"repro: cannot reach the service ({exc}); is `repro serve` running?",
            file=sys.stderr,
        )
        return 2


def _loadgen_run(args) -> int:
    import itertools

    from repro.experiments.loadgen import run_loadgen
    from repro.service import ServiceClient

    if args.batch < 1:
        print("repro: --batch must be >= 1", file=sys.stderr)
        return 2
    if args.chaos is not None:
        return _loadgen_chaos(args)
    if args.theory is None:
        print("repro: loadgen needs a theory name (or --chaos)", file=sys.stderr)
        return 2
    ds = make_dataset(args.dataset, seed=args.seed, scale=args.scale)
    pool = itertools.cycle(str(e) for e in (*ds.pos, *ds.neg))
    examples = [next(pool) for _ in range(args.batch)]

    def make_client():
        return ServiceClient(
            host=args.host, port=args.port,
            token=args.token, retries=args.retries,
        )

    report = run_loadgen(
        make_client, args.theory, examples,
        n_requests=args.requests, rate=args.rate, pattern=args.pattern,
        seed=args.seed, shards=args.shards or None, stream=args.stream,
        concurrency=args.concurrency, deadline_ms=args.deadline_ms,
    )
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(
        f"% {report['pattern']} x{report['n_requests']} @ {report['rate']}/s "
        f"(batch={report['batch']}, shards={report['shards'] or 1}, "
        f"stream={report['stream']}): achieved {report['achieved_rps']}/s "
        f"in {report['wall_s']}s, errors={report['errors']}"
    )
    for label, key in (("latency", "latency"), ("first-frame", "first_frame")):
        stats = report.get(key)
        if stats:
            print(
                f"%   {label}: p50={stats['p50_ms']}ms p95={stats['p95_ms']}ms "
                f"p99={stats['p99_ms']}ms max={stats['max_ms']}ms"
            )
    for sample in report["error_samples"]:
        print(f"%   error: {sample}", file=sys.stderr)
    return 0 if report["errors"] == 0 else 1


def _loadgen_chaos(args) -> int:
    from repro.experiments.chaos import chaos_passed, chaos_report_lines, run_chaos
    from repro.fault.service import ServiceFaultPlan

    try:
        plan = ServiceFaultPlan.load(args.chaos)
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro: bad --chaos plan: {exc}", file=sys.stderr)
        return 2
    if args.stream:
        print("repro: --chaos drives plain queries; drop --stream", file=sys.stderr)
        return 2
    report = run_chaos(
        plan,
        dataset=args.dataset, seed=args.seed, scale=args.scale,
        batch=args.batch, requests=args.requests, rate=args.rate,
        pattern=args.pattern, shards=args.shards or 2,
        concurrency=args.concurrency, retries=args.retries or 5,
    )
    for line in chaos_report_lines(report):
        print(line)
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"% wrote chaos report to {args.bench_out}")
    return 0 if chaos_passed(report) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "learn": _cmd_learn,
        "resume": _cmd_resume,
        "faults": _cmd_faults,
        "tables": _cmd_tables,
        "trace": _cmd_trace,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "jobs": _cmd_jobs,
        "registry": _cmd_registry,
        "query": _cmd_query,
        "loadgen": _cmd_loadgen,
    }[args.command]
    frozen = gc.get_freeze_count()
    try:
        if getattr(args, "profile", None):
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return handler(args)
            finally:
                profiler.disable()
                profiler.dump_stats(args.profile)
                print(f"% wrote cProfile stats to {args.profile}", file=sys.stderr)
        return handler(args)
    except RuntimeError as exc:
        # Only a command that imported repro.backend can raise its error.
        backend = sys.modules.get("repro.backend")
        if backend is None or not isinstance(exc, backend.BackendUnavailableError):
            raise
        print(f"repro: backend unavailable: {exc}", file=sys.stderr)
        return 2
    finally:
        if not frozen:  # undo _problem's freeze: in-process callers get their heap back
            gc.unfreeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
