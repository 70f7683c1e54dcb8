"""Chaos harness: a served instance driven through a fault plan, gated on invariants.

``repro loadgen --chaos plan.json`` runs **two self-hosted legs** of the
same workload — one fault-free, one under a
:class:`~repro.fault.service.ServiceFaultPlan` — and compare them:

* **Result parity** — the canonical batched coverage query must return
  a bit-identical decision vector on both legs.  Injected resets, lease
  failures, slot crashes and torn writes may cost latency; they must
  never change an answer.
* **Zero duplicated jobs** — every learning job is submitted *twice*
  with the same idempotency key (simulating the retry-after-lost-
  response case the plan's ``when="after"`` resets create for real),
  and re-submitted again after a restart over the same state dir.  The
  job count must equal the number of distinct keys.
* **Zero corrupt records** — after the graceful drain and restart, the
  recovered scheduler must report an empty quarantine: torn writes are
  confined to the atomic-rename window and never reach ``job.rec``.
* **Bounded degradation** — client retries must absorb every injected
  fault: the chaos leg's loadgen report has to finish with zero errors,
  and the tail-latency delta vs the fault-free leg is *reported* (not
  gated — it is the honest price of the chaos).

Each leg is the full service lifecycle: start, submit (twice), drive
open-loop query traffic, wait for the jobs, snapshot stats, **graceful
drain**, restart over the same state dir, verify recovery, shut down.
Running the fault-free leg through the identical sequence keeps the
comparison honest — both legs pay the same lifecycle overheads.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
from typing import Optional

from repro.datasets import make_dataset
from repro.experiments.loadgen import run_loadgen
from repro.fault.plan import normalize_plan
from repro.fault.service import ServiceFaultPlan
from repro.service.jobs import JobSpec, run_job
from repro.service.registry import TheoryRegistry

__all__ = ["run_chaos", "chaos_passed", "chaos_report_lines"]


def _published_theory(registry_root: str, dataset: str, seed: int, scale: str):
    """Learn one sequential-MDIE theory and publish it for both legs.

    Returns ``(dataset, theory name)``.
    """
    ds = make_dataset(dataset, seed=seed, scale=scale)
    learned = run_job(JobSpec(dataset=dataset, algo="mdie", seed=seed, scale=scale))
    name = f"{dataset}-bench"
    TheoryRegistry(registry_root).publish(
        name,
        learned.theory,
        config_sig=learned.config_sig,
        provenance={"dataset": dataset, "seed": str(seed), "scale": scale},
    )
    return ds, name


def _start_server(
    state_dir: str,
    registry_dir: str,
    fault_plan: Optional[ServiceFaultPlan] = None,
    slots: int = 2,
    max_queue: int = 16,
    max_inflight: int = 64,
):
    """One in-process server on an ephemeral port; returns (thread, server)."""
    from repro.service import serve

    ready = threading.Event()
    box: dict = {}

    def _ready(server) -> None:
        box["server"] = server
        ready.set()

    thread = threading.Thread(
        target=serve,
        kwargs=dict(
            host="127.0.0.1", port=0, slots=slots,
            state_dir=state_dir, registry_dir=registry_dir,
            max_queue=max_queue, max_inflight=max_inflight,
            fault_plan=fault_plan, ready=_ready,
        ),
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=60):
        raise RuntimeError("chaos server did not come up")
    return thread, box["server"]


def _run_leg(
    label: str,
    plan: Optional[ServiceFaultPlan],
    root: str,
    registry_dir: str,
    theory: str,
    examples: list[str],
    dataset: str,
    seed: int,
    n_jobs: int,
    requests: int,
    rate: float,
    pattern: str,
    shards: int,
    concurrency: int,
    retries: int,
) -> dict:
    """One full lifecycle (serve → load → drain → restart → verify)."""
    from repro.service import ServiceClient

    state_dir = os.path.join(root, f"state-{label}")
    keys = [f"chaos-{label}-{i}" for i in range(n_jobs)]
    thread, server = _start_server(state_dir, registry_dir, fault_plan=plan)
    port = server.port

    def make_client(**kw):
        return ServiceClient(
            host="127.0.0.1", port=port,
            retries=retries, backoff=0.02, backoff_max=0.5, **kw,
        )

    with make_client() as client:
        job_ids = [
            client.submit(
                JobSpec(dataset=dataset, algo="mdie", seed=seed + i, preemptible=True),
                idempotency_key=key,
            )
            for i, key in enumerate(keys)
        ]
        # The retry-after-lost-response case, forced: resend every submit
        # with its original key.  Dedup must hand back the same ids.
        resent = [
            client.submit(
                JobSpec(dataset=dataset, algo="mdie", seed=seed + i, preemptible=True),
                idempotency_key=key,
            )
            for i, key in enumerate(keys)
        ]
        load = run_loadgen(
            make_client, theory, examples,
            n_requests=requests, rate=rate, pattern=pattern, seed=seed,
            shards=shards, concurrency=concurrency,
        )
        job_states = {j: client.wait(j, timeout=600).get("state") for j in job_ids}
        canonical = client.query(theory, examples, shards=shards)
        stats = client.request({"op": "stats"})

    # Graceful drain at the tail — the SIGTERM handler's code path.
    server.initiate_drain()
    thread.join(timeout=120)
    if thread.is_alive():
        raise RuntimeError(f"chaos {label} leg: server did not drain")

    # Restart plain (no plan) over the same state dir: recovery must see
    # every job exactly once and quarantine nothing.
    thread, server = _start_server(state_dir, registry_dir, fault_plan=None)
    try:
        with ServiceClient(host="127.0.0.1", port=server.port) as client:
            recovered = client.request({"op": "jobs"})["jobs"]
            replayed = [
                client.submit(
                    JobSpec(dataset=dataset, algo="mdie", seed=seed + i, preemptible=True),
                    idempotency_key=key,
                )
                for i, key in enumerate(keys)
            ]
            after = client.request({"op": "stats"})
            requery = client.query(theory, examples, shards=shards)
            client.request({"op": "shutdown"})
    finally:
        thread.join(timeout=60)

    dedup_ok = resent == job_ids and replayed == job_ids
    return {
        "load": load,
        "jobs": job_states,
        "canonical": {"covered": canonical.get("covered"), "n": canonical.get("n")},
        "requery": {"covered": requery.get("covered"), "n": requery.get("n")},
        "stats": stats,
        "recovered_jobs": len(recovered),
        "duplicated_jobs": (len(recovered) - n_jobs) + (0 if dedup_ok else 1),
        "corrupt_records": len(
            after.get("resilience", {}).get("quarantined", [])
        ),
        "faults": stats.get("faults"),
    }


def run_chaos(
    plan: ServiceFaultPlan,
    dataset: str = "trains",
    seed: int = 0,
    scale: str = "small",
    batch: int = 50,
    requests: int = 20,
    rate: float = 50.0,
    pattern: str = "burst",
    shards: int = 2,
    n_jobs: int = 2,
    concurrency: int = 4,
    retries: int = 5,
    root: Optional[str] = None,
) -> dict:
    """Fault-free leg vs chaos leg of the same served workload.

    Returns a report whose ``invariants`` block carries the gates
    (``parity``, ``duplicated_jobs``, ``corrupt_records``,
    ``load_errors`` — all must be true/zero for a passing run) and whose
    ``tail_delta_ms`` block carries the honest price (p95/p99 latency
    deltas of the chaos leg over the baseline).
    """
    if normalize_plan(plan) is None:
        raise ValueError("chaos runs need a non-empty fault plan")
    own_tmp = None
    if root is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root = own_tmp.name
    try:
        reg_root = os.path.join(root, "registry")
        ds, theory = _published_theory(reg_root, dataset, seed, scale)
        pool = itertools.cycle(str(e) for e in (*ds.pos, *ds.neg))
        examples = [next(pool) for _ in range(batch)]
        common = dict(
            root=root, registry_dir=reg_root, theory=theory, examples=examples,
            dataset=dataset, seed=seed, n_jobs=n_jobs, requests=requests,
            rate=rate, pattern=pattern, shards=shards,
            concurrency=concurrency, retries=retries,
        )
        baseline = _run_leg("baseline", None, **common)
        chaos = _run_leg("chaos", plan, **common)
        parity = (
            baseline["canonical"] == chaos["canonical"]
            and chaos["canonical"] == chaos["requery"]
        )
        deltas = {}
        for q in ("p95_ms", "p99_ms"):
            base_q = baseline["load"].get("latency", {}).get(q)
            chaos_q = chaos["load"].get("latency", {}).get(q)
            if base_q is not None and chaos_q is not None:
                deltas[q] = round(chaos_q - base_q, 3)
        injected = chaos["faults"] or {}
        return {
            "dataset": dataset,
            "batch": batch,
            "requests": requests,
            "n_jobs": n_jobs,
            "plan_events": {
                "resets": len(plan.resets),
                "leases": len(plan.leases),
                "slot_crashes": len(plan.crashes),
                "persist": len(plan.persist),
            },
            "baseline": baseline,
            "chaos": chaos,
            "injected": injected.get("injected", []),
            "tail_delta_ms": deltas,
            "invariants": {
                "parity": parity,
                "duplicated_jobs": chaos["duplicated_jobs"],
                "corrupt_records": chaos["corrupt_records"],
                "load_errors": chaos["load"]["errors"],
                "jobs_done": all(s == "done" for s in chaos["jobs"].values()),
            },
        }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def chaos_passed(report: dict) -> bool:
    """True when every gated invariant of a chaos report holds."""
    inv = report["invariants"]
    return bool(
        inv["parity"]
        and inv["jobs_done"]
        and inv["duplicated_jobs"] == 0
        and inv["corrupt_records"] == 0
        and inv["load_errors"] == 0
    )


def chaos_report_lines(report: dict) -> list[str]:
    """Human-readable summary of a :func:`run_chaos` report."""
    inv = report["invariants"]
    ev = report["plan_events"]
    lines = [
        f"% chaos plan: {ev['resets']} reset(s), {ev['leases']} lease fault(s), "
        f"{ev['slot_crashes']} slot crash(es), {ev['persist']} torn write(s)",
    ]
    for line in report["injected"]:
        lines.append(f"%   injected: {line}")
    for leg in ("baseline", "chaos"):
        stats = report[leg]["load"].get("latency")
        if stats:
            lines.append(
                f"% {leg}: p50={stats['p50_ms']}ms p95={stats['p95_ms']}ms "
                f"p99={stats['p99_ms']}ms errors={report[leg]['load']['errors']}"
            )
    if report["tail_delta_ms"]:
        deltas = ", ".join(
            f"{k.replace('_ms', '')}+{v}ms" if v >= 0 else f"{k.replace('_ms', '')}{v}ms"
            for k, v in report["tail_delta_ms"].items()
        )
        lines.append(f"% tail price of chaos: {deltas}")
    verdict = "PASS" if chaos_passed(report) else "FAIL"
    lines.append(
        f"% invariants [{verdict}]: parity={inv['parity']} "
        f"duplicated_jobs={inv['duplicated_jobs']} "
        f"corrupt_records={inv['corrupt_records']} "
        f"load_errors={inv['load_errors']} jobs_done={inv['jobs_done']}"
    )
    return lines
