#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds N]
                         [--trace {0,1}] [--smoke] [--out FILE] [--golden FILE]

Runs the named workload (all five when none is named) against the
unmodified program — CLI subprocesses, a real ``repro serve`` on a
loopback socket, and the layers' public functions — checks every answer,
prints every metric by name with its unit, and ends with one JSON line
per workload: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` measures the per-layer metrics: a shorter untraced run, the
same run under ``bench/tracing.py``, and the in-process layer probes.
Names, units, directions and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import harness

if not (harness.SRC / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure at {harness.SRC}/repro")
sys.path.insert(0, str(harness.SRC))

import probes  # noqa: E402  (needs src on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402


#: the end-to-end timings: where their samples are in an Outcome, and the unit.
TIMINGS = {
    "setup_s": ("setup_s", "s"),
    "latency_p50_ms": ("latency_ms", "ms"),
    "cpu_ms_per_op": ("cpu_ms", "ms"),
}


def end_to_end_samples(out: workloads.Outcome) -> dict:
    """Samples of each end-to-end metric, timings scaled to the reference
    host speed: what they would have read had a host-speed sample taken
    HOST_REF_MS throughout the run.  Memory is not scaled."""
    speed = harness.HOST_REF_MS / harness.level(out.host_ms)
    samples = {
        metric: [v * speed for v in getattr(out, attr)] for metric, (attr, _) in TIMINGS.items()
    }
    samples["peak_rss_mb"] = [out.peak_rss_mb]
    return samples


def end_to_end(out: workloads.Outcome) -> dict:
    """The host is slow for whole stretches of a run (a round reads 12 or
    20 ms, rarely between), so a run's time follows the share of slow
    stretches: means, of the samples and of the host speed, go together
    where a median would flip between the two levels."""
    return {m: harness.level(v) for m, v in end_to_end_samples(out).items()}


def run_stats(out: workloads.Outcome) -> dict:
    """What the measured (untraced) run says beyond its gated metrics."""
    return {
        "run.ops": out.attempted,
        "run.latency_p90_ms": harness.percentile(out.pooled_ms, 90),
        "run.latency_p99_ms": harness.percentile(out.pooled_ms, 99),
        "run.latency_max_ms": max(out.pooled_ms),
        "run.capacity_ops_s": statistics.median(out.capacity),
        "run.bytes_per_op": out.bytes_per_op,
        "loadgen.lag_p99_ms": harness.percentile(out.lags_ms, 99),
        "loadgen.floor_ms": statistics.median(out.floor_ms),
        "loadgen.rounds_redone": out.redone,
        "logic.ops_per_op": out.engine_ops_per_op,
        "ilp.epochs_per_op": out.epochs_per_op,
        "parallel.comm_mb_per_op": out.comm_mb_per_op,
        "service.prepared_hit_frac": out.prepared_hit_frac,
    }


def trace_shares(name: str, traced: workloads.Outcome, plain: workloads.Outcome) -> dict:
    """Self time per layer as a share of the program's busy time, from the
    span files the traced subprocesses left in ``bench/out``."""
    layer_s = {layer: 0.0 for layer in tracing.LAYERS}
    n_spans = 0
    with open(harness.OUT / f"trace-{name}.jsonl", "w", encoding="utf-8") as fh:
        # One file per program subprocess; span ids are unique inside one,
        # so self times are taken per process and "proc" tells them apart.
        for proc, path in enumerate(sorted(harness.OUT.glob(f"spans-{name}.*.jsonl"))):
            spans = tracing.read_spans(path)
            path.unlink()
            n_spans += len(spans)
            for span in spans:
                fh.write(json.dumps({"proc": proc, **span}) + "\n")
            for t_from, t_to in traced.windows:
                shares = tracing.self_seconds(spans, t_from, t_to, cpu=traced.busy_is_cpu)
                for layer, s in shares.items():
                    layer_s[layer] += s
    busy = traced.busy_s
    metrics = {f"{layer}.trace_share": s / busy for layer, s in layer_s.items()}
    metrics["bench.unattributed_frac"] = 1.0 - sum(layer_s.values()) / busy
    metrics["bench.trace_spans"] = n_spans
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(traced.latency_ms) / statistics.median(plain.latency_ms) - 1.0
    )
    return metrics


def measure(name: str, args, golden: dict) -> dict:
    """One workload, one mode; returns its report entry."""
    harness.OUT.mkdir(exist_ok=True)
    if not args.trace:
        out = workloads.run_workload(name, golden, args.seed, args.seconds, args.smoke)
        outcomes = [out]
        metrics = end_to_end(out)
        # What the clock read, beside what is reported.
        detail = dict(out.detail)
        detail["bench.host_ms"] = {"value": harness.level(out.host_ms), "unit": "ms"}
        for metric, (attr, unit) in TIMINGS.items():
            detail[f"raw.{metric}"] = {"value": harness.level(getattr(out, attr)), "unit": unit}
    else:
        half = max(1.0, args.seconds / 2)
        plain = workloads.run_workload(name, golden, args.seed, half, args.smoke, capacity=True)
        script = str(harness.BENCH / "tracing.py")
        traced = workloads.run_workload(
            name, golden, args.seed, half, args.smoke,
            launcher=lambda i: (script, str(harness.OUT / f"spans-{name}.{i}.jsonl")),
        )
        outcomes = [plain, traced]
        metrics = run_stats(plain)
        metrics.update(trace_shares(name, traced, plain))
        with harness.scratch_dir() as tmp:
            metrics.update(probes.run_all(golden, tmp))
        metrics["bench.host_ms"] = harness.level(plain.host_ms)
        detail = plain.detail
    return {
        "trace": args.trace,
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems],
        "metrics": metrics,
        "samples": {
            metric: {**harness.summary(values), "values": values}
            for metric, values in end_to_end_samples(outcomes[0]).items()
        },
        "detail": detail,
        "host_ms": outcomes[0].host_ms,
    }


def with_units(name: str, entry: dict, spec: dict) -> dict:
    """The contract line: every metric of this mode, by name, with the unit
    BENCHMARK.json declares for it (a name it does not declare is a bug)."""
    kind = "per_layer" if entry["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(entry["metrics"]):
        raise SystemExit(
            f"bench/run.py: {name}: metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(units) ^ set(entry['metrics']))}"
        )
    for metric, value in entry["metrics"].items():
        if not math.isfinite(value):
            raise SystemExit(f"bench/run.py: {name}: {metric} is {value}")
    return {
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in entry["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one unit / one server instance / 1-s phases: checks wiring, not speed")
    ap.add_argument("--out", default=None, metavar="FILE", help="write the full report as JSON")
    ap.add_argument("--golden", default=str(harness.BENCH / "golden.json"), metavar="FILE")
    args = ap.parse_args(argv)
    spec = harness.load_json(harness.ROOT / "BENCHMARK.json")
    golden = harness.load_json(args.golden)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    report = {
        "provenance": harness.provenance(),
        "args": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "smoke": args.smoke},
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = measure(name, args, golden)
        line = with_units(name, entry, spec)
        report["workloads"][name] = entry
        ok = ok and entry["correct"]
        print(f"== {name}  (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        extras = entry["detail"]
        for metric, mv in sorted({**line["metrics"], **extras}.items()):
            print(f"{metric:34s} {mv['value']:14.4f} {mv['unit']}")
        for problem in entry["problems"]:
            print(f"PROBLEM: {problem}")
        print(f"attempted {entry['attempted']}  failed {entry['failed']}  "
              f"failed_frac {entry['failed'] / entry['attempted']:.4f}")
        sys.stdout.flush()
        print(json.dumps(line))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
