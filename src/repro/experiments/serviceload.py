"""Service workload generation and measurement.

The service benchmark (``benchmarks/bench_service.py``) and the
experiments layer share these helpers: build a fleet of learning-job
specs, drive a :class:`~repro.service.scheduler.JobScheduler` to
completion under wall-clock timing, and measure batched-query latency
scaling against the one-shot baseline.

Measurements are wall-clock by design — the service layer exists to
overlap real work (local-backend jobs are OS processes; queries run in
the serving process), so virtual time has no meaning here.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.datasets import make_dataset
from repro.ilp import predicts
from repro.logic.engine import Engine
from repro.service.jobs import JobOutcome, JobSpec, run_job
from repro.service.query import QueryEngine
from repro.service.registry import TheoryRegistry
from repro.service.scheduler import JobScheduler

__all__ = [
    "make_job_fleet",
    "run_job_fleet",
    "measure_query_scaling",
    "measure_shard_scaling",
    "measure_streaming_latency",
    "measure_transport_bytes",
]


def make_job_fleet(
    n_jobs: int,
    dataset: str = "trains",
    algo: str = "p2mdie",
    p: int = 2,
    backend: str = "local",
    base_seed: int = 0,
) -> list[JobSpec]:
    """``n_jobs`` independent learning specs with distinct seeds.

    Distinct seeds make the fleet a realistic multi-tenant mix (each job
    learns on its own generated dataset instance) while staying fully
    deterministic.
    """
    return [
        JobSpec(dataset=dataset, algo=algo, p=p, backend=backend, seed=base_seed + i)
        for i in range(n_jobs)
    ]


def run_job_fleet(
    specs: Sequence[JobSpec],
    slots: int,
    state_dir: Optional[str] = None,
    verify_parity: bool = False,
    timeout: float = 1800.0,
) -> dict:
    """Run ``specs`` to completion over ``slots``; wall-clock throughput.

    With ``verify_parity`` every job outcome is additionally checked
    bit-identical against a direct in-process :func:`run_job` of the
    same spec — the service guarantee the benchmark gates on.
    """
    scheduler = JobScheduler(slots=slots, state_dir=state_dir)
    t0 = time.perf_counter()
    job_ids = [scheduler.submit(spec) for spec in specs]
    scheduler.wait_all(timeout=timeout)
    wall = time.perf_counter() - t0
    outcomes: list[JobOutcome] = [scheduler.result(j) for j in job_ids]
    scheduler.close()
    parity = True
    if verify_parity:
        for spec, outcome in zip(specs, outcomes):
            direct = run_job(spec.replace(backend="sim"))
            parity = parity and list(direct.theory) == list(outcome.theory)
    return {
        "n_jobs": len(specs),
        "slots": slots,
        "wall_s": round(wall, 4),
        "jobs_per_s": round(len(specs) / wall, 4) if wall else 0.0,
        "epochs": sum(o.epochs for o in outcomes),
        "parity": parity,
    }


def measure_query_scaling(
    batch_sizes: Sequence[int],
    dataset: str = "trains",
    seed: int = 0,
    scale: str = "small",
    registry_root: Optional[str] = None,
) -> dict:
    """Per-query latency of batched coverage vs the one-shot baseline.

    Learns one theory (sequential MDIE), registers it, then for each
    batch size measures (a) the batched
    :meth:`~repro.service.query.QueryEngine.query` path — prepared
    engine, one clause rename per batch, first-match candidate
    narrowing — and (b) the naive loop calling
    :func:`repro.ilp.theory.predicts` per example on the same warm
    engine.  Both must classify every example identically (gated).

    Batches cycle the dataset's pos+neg pool to the requested size, so
    large batches really answer thousands of ground queries.
    """
    import itertools
    import tempfile

    ds = make_dataset(dataset, seed=seed, scale=scale)
    learned = run_job(JobSpec(dataset=dataset, algo="mdie", seed=seed, scale=scale))
    own_tmp = None
    if registry_root is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-queryreg-")
        registry_root = own_tmp.name
    try:
        registry = TheoryRegistry(registry_root)
        registry.publish(
            f"{dataset}-bench",
            learned.theory,
            config_sig=learned.config_sig,
            provenance={"dataset": dataset, "seed": str(seed), "scale": scale},
        )
        engine = QueryEngine(registry=registry)
        pool = ds.pos + ds.neg
        baseline_engine = Engine(
            ds.kb, ds.config.engine_budget(), kernel=ds.config.coverage_kernel
        )
        rows = []
        parity = True
        for size in batch_sizes:
            batch = list(itertools.islice(itertools.cycle(pool), size))
            t0 = time.perf_counter()
            result = engine.query(f"{dataset}-bench", batch)
            batched_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            oneshot = [predicts(baseline_engine, learned.theory, e) for e in batch]
            oneshot_s = time.perf_counter() - t0
            parity = parity and result.decisions() == oneshot
            rows.append(
                {
                    "batch": size,
                    "batched_s": round(batched_s, 6),
                    "oneshot_s": round(oneshot_s, 6),
                    "batched_us_per_query": round(1e6 * batched_s / size, 3),
                    "oneshot_us_per_query": round(1e6 * oneshot_s / size, 3),
                    "speedup": round(oneshot_s / batched_s, 3) if batched_s else 0.0,
                }
            )
        return {
            "dataset": dataset,
            "theory_size": len(learned.theory),
            "pool": len(pool),
            "rows": rows,
            "prepared": engine.stats(),
            "parity": parity,
        }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _published_theory(registry_root: str, dataset: str, seed: int, scale: str):
    """Learn one sequential-MDIE theory and publish it under the bench name.

    Shared setup of the query-tier measurements: the learned theory is
    the *sequential* baseline by construction, so every sharded /
    streamed / remote-transport result can be compared against it.
    Returns ``(dataset, outcome, name, registry)``.
    """
    ds = make_dataset(dataset, seed=seed, scale=scale)
    learned = run_job(JobSpec(dataset=dataset, algo="mdie", seed=seed, scale=scale))
    name = f"{dataset}-bench"
    registry = TheoryRegistry(registry_root)
    registry.publish(
        name,
        learned.theory,
        config_sig=learned.config_sig,
        provenance={"dataset": dataset, "seed": str(seed), "scale": scale},
    )
    return ds, learned, name, registry


def _cycled_batch(ds, size: int) -> list:
    import itertools

    return list(itertools.islice(itertools.cycle(ds.pos + ds.neg), size))


def measure_shard_scaling(
    shard_counts: Sequence[int],
    batch: int = 1000,
    dataset: str = "trains",
    seed: int = 0,
    scale: str = "small",
) -> dict:
    """Sharded batched-query throughput vs the sequential path.

    One batch of ``batch`` examples (the dataset pool cycled), evaluated
    once sequentially and then with each shard count; every sharded
    covered-bitset must equal the sequential one bit for bit (the
    parity flag the benchmark gates on).  Each configuration gets one
    warm-up run first, so engine-pool construction is not billed to the
    steady-state number.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-shardbench-") as root:
        ds, _learned, name, registry = _published_theory(root, dataset, seed, scale)
        engine = QueryEngine(registry=registry)
        examples = _cycled_batch(ds, batch)
        engine.query(name, examples)  # warm the prepared-theory cache
        t0 = time.perf_counter()
        seq = engine.query(name, examples)
        seq_s = time.perf_counter() - t0
        rows = []
        parity = True
        for shards in shard_counts:
            engine.query(name, examples, shards=shards)  # warm the engine pool
            t0 = time.perf_counter()
            res = engine.query(name, examples, shards=shards)
            wall = time.perf_counter() - t0
            parity = parity and res.covered == seq.covered and res.n == seq.n
            rows.append(
                {
                    "shards": shards,
                    "wall_s": round(wall, 6),
                    "examples_per_s": round(batch / wall, 1) if wall else 0.0,
                    "speedup_vs_seq": round(seq_s / wall, 3) if wall else 0.0,
                }
            )
        return {
            "batch": batch,
            "dataset": dataset,
            "sequential_s": round(seq_s, 6),
            "rows": rows,
            "parity": parity,
        }


def measure_streaming_latency(
    batch: int = 1000,
    shards: int = 4,
    dataset: str = "trains",
    seed: int = 0,
    scale: str = "small",
) -> dict:
    """Time-to-first-shard-frame vs full-batch latency of one stream.

    Runs on a single-worker shard executor so the shards serialize: the
    first frame then lands after ~1/``shards`` of the total work by
    construction, which is the latency decoupling the streaming tier
    sells (and what the benchmark asserts — ``first_frame_s`` strictly
    below ``full_batch_s``).  The reassembled result must match the
    sequential path bit for bit.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-streambench-") as root:
        ds, _learned, name, registry = _published_theory(root, dataset, seed, scale)
        engine = QueryEngine(registry=registry, shard_workers=1)
        examples = _cycled_batch(ds, batch)
        seq = engine.query(name, examples)
        t0 = time.perf_counter()  # clock covers stream open + shard work
        stream = engine.query_stream(name, examples, shards=shards)
        first_s = None
        for _frame in stream.frames():
            if first_s is None:
                first_s = time.perf_counter() - t0
        full_s = time.perf_counter() - t0
        result = stream.result()
        return {
            "batch": batch,
            "shards": result.shards,
            "first_frame_s": round(first_s, 6),
            "full_batch_s": round(full_s, 6),
            "first_fraction": round(first_s / full_s, 4) if full_s else 0.0,
            "parity": result.covered == seq.covered and result.n == seq.n,
        }


def measure_transport_bytes(
    batch: int = 200,
    dataset: str = "trains",
    seed: int = 0,
    scale: str = "small",
) -> dict:
    """Bytes on the socket for one batched query, JSON-lines vs wire.

    Starts a real server, runs the *same* query over both negotiated
    transports, and reads each client's byte counters (hello/negotiation
    overhead included — that is part of the transport's price).  Both
    responses must classify identically.
    """
    import os
    import tempfile
    import threading

    from repro.service import ServiceClient, serve

    with tempfile.TemporaryDirectory(prefix="repro-wirebench-") as root:
        reg_root = os.path.join(root, "registry")
        ds, _learned, name, _registry = _published_theory(reg_root, dataset, seed, scale)
        ready = threading.Event()
        box = {}

        def _ready(server) -> None:
            box["port"] = server.port
            ready.set()

        thread = threading.Thread(
            target=serve,
            kwargs=dict(
                host="127.0.0.1", port=0, slots=1,
                state_dir=os.path.join(root, "state"),
                registry_dir=reg_root, ready=_ready,
            ),
            daemon=True,
        )
        thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("benchmark server did not come up")
        examples = [str(e) for e in _cycled_batch(ds, batch)]
        legs = {}
        decisions = {}
        try:
            for transport in ("json", "wire"):
                with ServiceClient(
                    host="127.0.0.1", port=box["port"], transport=transport
                ) as client:
                    resp = client.query(name, examples)
                    if not resp.get("ok"):
                        raise RuntimeError(resp.get("error", "query failed"))
                    decisions[transport] = (resp["covered"], resp["n"])
                    legs[transport] = {
                        "bytes_sent": client.bytes_sent,
                        "bytes_received": client.bytes_received,
                        "bytes_total": client.bytes_sent + client.bytes_received,
                    }
        finally:
            with ServiceClient(host="127.0.0.1", port=box["port"]) as client:
                client.request({"op": "shutdown"})
            thread.join(timeout=15)
        return {
            "batch": batch,
            "dataset": dataset,
            "json": legs["json"],
            "wire": legs["wire"],
            "wire_fraction": round(
                legs["wire"]["bytes_total"] / legs["json"]["bytes_total"], 4
            ),
            "parity": decisions["json"] == decisions["wire"],
        }
