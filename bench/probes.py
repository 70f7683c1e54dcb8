"""Per-layer probes: time each layer's public entry points in-process.

Every probe runs on the reference problem (carcinogenesis, paper scale,
generator seed 0) or on ``trains`` where the layer's cost does not depend
on the problem, so the same numbers come out whichever workload's traced
run asked for them.  Each metric is named after the layer
(``src/repro/<layer>``) whose code it times; bench/README.md says which
end-to-end metric it should move.
"""

from __future__ import annotations

import resource
import statistics
import time

import harness

from repro.backend import LocalProcessBackend, SimBackend
from repro.datasets import make_dataset
from repro.experiments.trace import occupancy
from repro.ilp import ExampleStore, build_bottom, learn_rule, mdie
from repro.ilp.coverage import coverage_eval
from repro.logic import Clause, Engine, Theory, parse_clause
from repro.parallel import run_p2mdie, wire
from repro.service import JobSpec, QueryEngine, Service, TheoryRegistry, run_job

#: registry names the serve workloads and the service probes query.
THEORY = "carc"
SMALL_BATCH = 1
LARGE_BATCH = 200


def reference_dataset():
    name, scale, seed = harness.DATASET
    return make_dataset(name, seed=seed, scale=scale)


def golden_theory(golden: dict) -> Theory:
    return Theory([parse_clause(c) for c in golden["learn_seq"]["clauses"]])


def publish_golden(registry_dir, ds, theory: Theory):
    """Put the golden theory where a server (or QueryEngine) finds it, with
    the provenance ``prepare`` needs to rebuild the dataset's KB."""
    dataset, scale, seed = harness.DATASET
    return TheoryRegistry(str(registry_dir)).publish(
        THEORY, theory, config_sig=repr(ds.config),
        provenance={"dataset": dataset, "scale": scale, "seed": str(seed)},
    )


def _engine(ds) -> Engine:
    return Engine(ds.kb, ds.config.engine_budget(), kernel=ds.config.coverage_kernel)


def _timed(fn, reps: int) -> list:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


# -- datasets / logic / ilp -----------------------------------------------------------


def probe_datasets() -> dict:
    name, scale, seed = harness.DATASET
    times = _timed(lambda: make_dataset(name, seed=seed, scale=scale), 3)
    return {"datasets.generate_s": statistics.median(times)}


def probe_logic(ds, theory: Theory) -> dict:
    """``coverage_eval`` of every body prefix of every golden clause over
    all examples, on a fresh engine: the unit of work both learning and
    querying are made of."""
    examples = [*ds.pos, *ds.neg]
    rules = [
        Clause(c.head, c.body[:k]) for c in theory for k in range(1, len(c.body) + 1)
    ]
    per_example, ops_per_s, engine = [], [], None
    for _ in range(5):
        engine = _engine(ds)
        t0 = time.perf_counter()
        for rule in rules:
            coverage_eval(engine, rule, examples)
        busy = time.perf_counter() - t0
        per_example.append(busy / (len(rules) * len(examples)) * 1e6)
        ops_per_s.append(engine.total_ops / busy)
    return {
        "logic.cover_us_per_example": statistics.median(per_example),
        "logic.ops_per_s": statistics.median(ops_per_s),
        "logic.probe_ops": engine.total_ops,
    }


def probe_ilp(ds) -> tuple[dict, object]:
    """Saturation, one rule search, and a whole in-process ``mdie`` run
    (whose wall clock is the base of the parallel ratios)."""
    engine = _engine(ds)
    saturate = [
        _timed(lambda e=e: build_bottom(e, engine, ds.modes, ds.config), 1)[0] * 1000.0
        for e in ds.pos[:20]
    ]
    bottom = build_bottom(ds.pos[0], engine, ds.modes, ds.config)
    rule_s = _timed(
        lambda: learn_rule(_engine(ds), bottom, ExampleStore(ds.pos, ds.neg), ds.config, width=1), 3
    )
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    res = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=harness.DATASET[2])
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    evals = res.cache_hits + res.cache_misses
    metrics = {
        "ilp.saturate_ms": statistics.median(saturate),
        "ilp.learn_rule_s": statistics.median(rule_s),
        "ilp.mdie_s": wall,
        "ilp.epochs": res.epochs,
        "ilp.ops": res.ops,
        "ilp.eval_cache_hit_frac": res.cache_hits / evals if evals else 0.0,
        "ilp.evals_per_epoch": evals / res.epochs if res.epochs else 0.0,
    }
    return metrics, (res, wall, cpu)


# -- parallel / backend ----------------------------------------------------------------


def probe_parallel(ds, seq) -> dict:
    """The paper's counts from a ``sim`` run, the codec over the messages
    that run sent, and occupancy and start-up cost from a ``local`` run."""
    seq_res, seq_wall, seq_cpu = seq
    seed = harness.DATASET[2]
    corpus: list = []
    real_encode = wire.encode_always

    def capturing(payload):
        corpus.append(payload)
        return real_encode(payload)

    # Every message a sim run sends is sized once through the codec; catch
    # the payloads there rather than re-deriving the protocol here.
    wire.encode_always = capturing
    try:
        sim = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=seed,
                         backend=SimBackend())
    finally:
        wire.encode_always = real_encode
    blobs = [b for b in map(wire.encode_always, corpus) if b is not None]
    enc = statistics.median(_timed(lambda: [wire.encode_always(p) for p in corpus], 5))
    dec = statistics.median(_timed(lambda: [wire.decode(b) for b in blobs], 5))

    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    local = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=seed,
                       backend=LocalProcessBackend(record_trace=True))
    local_wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    local_cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    occ = occupancy(local.trace, local.seconds)
    workers = [f for rank, f in occ.items() if rank != 0]
    return {
        "parallel.epochs": sim.epochs,
        "parallel.messages": sim.comm.messages,
        "parallel.bytes": sim.comm.bytes_total,
        "parallel.bytes_per_msg": sum(map(len, blobs)) / len(blobs),
        "parallel.encode_us_per_msg": enc / len(corpus) * 1e6,
        "parallel.decode_us_per_msg": dec / len(blobs) * 1e6,
        "parallel.worker_occupancy": sum(workers) / len(workers) if workers else 0.0,
        "parallel.master_busy_frac": occ.get(0, 0.0),
        "parallel.speedup_vs_seq": seq_wall / local_wall,
        "parallel.cpu_overhead_frac": local_cpu / seq_cpu - 1.0,
        "parallel.theory_matches_sim": float(
            [str(c) for c in local.theory] == [str(c) for c in sim.theory]
        ),
        "backend.spawn_s": local_wall - local.seconds,
    }


# -- service ---------------------------------------------------------------------------


def probe_service(ds, theory: Theory, tmp) -> dict:
    """The query path with no socket (engine, then ``Service.handle``), the
    cost of a cold prepare, of a publish, and of a job with no scheduler."""
    publish_golden(tmp / "reg", ds, theory)
    pool = [*ds.pos, *ds.neg]
    out = {}
    cold_engine = QueryEngine(registry=TheoryRegistry(str(tmp / "reg")))
    t0 = time.perf_counter()
    cold_engine.query(THEORY, pool[:SMALL_BATCH])
    cold = time.perf_counter() - t0
    service = Service(slots=1, registry_dir=str(tmp / "reg"), state_dir=str(tmp / "state"))
    try:
        for label, n in (("small", SMALL_BATCH), ("batch", LARGE_BATCH)):
            terms = pool[:n]
            request = {"op": "query", "theory": THEORY, "examples": [str(t) for t in terms]}
            service.handle(request)
            engine_s = _timed(lambda: service.query_engine.query(THEORY, terms), 30)
            handle_s = _timed(lambda: service.handle(request), 30)
            out[f"service.engine_{label}_ms"] = statistics.median(engine_s) * 1000.0
            out[f"service.handle_{label}_ms"] = statistics.median(handle_s) * 1000.0
        out["service.prepare_ms"] = cold * 1000.0 - out["service.engine_small_ms"]
        publish_s = _timed(
            lambda: service.registry.publish("probe", theory, config_sig=repr(ds.config)), 10
        )
        out["service.publish_ms"] = statistics.median(publish_s) * 1000.0
        job_s = _timed(lambda: run_job(JobSpec(dataset="trains")), 5)
        out["service.run_job_ms"] = statistics.median(job_s) * 1000.0
    finally:
        service.close()
    return out


def run_all(golden: dict, tmp) -> dict:
    """Every probe once; ~12 s on the 2-core sandbox."""
    ds = reference_dataset()
    theory = golden_theory(golden)
    metrics = probe_datasets()
    metrics.update(probe_logic(ds, theory))
    ilp_metrics, seq = probe_ilp(ds)
    metrics.update(ilp_metrics)
    metrics.update(probe_parallel(ds, seq))
    metrics.update(probe_service(ds, theory, tmp))
    metrics["cli.import_s"] = probe_cli_import()
    return metrics


def probe_cli_import() -> float:
    """What ``import repro.cli`` costs every CLI invocation, beyond a bare
    interpreter (median of 3 fresh interpreters each)."""
    env = harness.program_env(0)
    bare = [harness.run_unit(["-c", "pass"], env).wall_s for _ in range(3)]
    full = [harness.run_unit(["-c", "import repro.cli"], env).wall_s for _ in range(3)]
    return statistics.median(full) - statistics.median(bare)
