"""The five workloads.  Each drives the unmodified program from outside,
checks every answer, and returns the samples its metrics are made of.

``launcher(i)`` gives the argv prefix that reaches the CLI for the i-th
program subprocess: ``-m repro`` for a measured run, ``bench/tracing.py
SPANS-i`` for a traced one — the same workload code produces both.
``capacity`` adds a back-to-back phase per server instance; it is off in
a measured run because it loads both cores and measures a per-layer
metric only.
"""

from __future__ import annotations

import gc
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field

import harness
import loadgen
import probes

from repro.datasets import make_dataset
from repro.ilp.coverage import theory_covered_bits
from repro.logic import Engine
from repro.service import JobSpec, ServiceClient, TheoryRegistry, run_job


def PLAIN(index: int) -> tuple:
    """Launcher of a measured run: ``python -m repro ...``."""
    return ("-m", "repro")


WORKLOADS = {
    "learn_seq": "one `repro learn carcinogenesis --scale paper` per fresh interpreter: logic and "
                 "ilp do all the work, parallel/backend/service none",
    "learn_p2_local": "the same problem with `--p 2 --backend local`: the only workload where the "
                      "master/worker protocol, wire codec and process backend run",
    "serve_batch": "200-example JSON queries at 30 req/s against `repro serve`: the engine is "
                   "most of server time, so logic/ilp.coverage gains show and transport barely",
    "serve_small": "1-example wire-transport queries at 300 req/s: parse, dispatch, thread "
                   "hand-off and framing dominate, engine work is negligible",
    "serve_churn": "paced `mdie` jobs each publishing a new version of the theory that "
                   "1-example queries are reading: scheduler, persistence, registry, cache refill",
}

#: server instances per full-length run; each contributes one set-up
#: sample and three open-loop rounds.
INSTANCES = 3
ROUNDS = 3


@dataclass
class Outcome:
    """What one measurement of one workload produced."""

    attempted: int = 0
    failed: int = 0
    #: oracle failures beyond single operations (versions published).
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)      # per unit / round p50 / job
    pooled_ms: list = field(default_factory=list)       # every operation's latency
    cpu_ms: list = field(default_factory=list)          # per unit / round / instance
    capacity: list = field(default_factory=list)        # ops/s back to back
    peak_rss_mb: float = 0.0
    lags_ms: list = field(default_factory=list)
    floor_ms: list = field(default_factory=list)
    redone: int = 0
    #: host-speed samples taken on the program's cores between units/rounds.
    host_ms: list = field(default_factory=list)
    bytes_per_op: float = 0.0
    engine_ops_per_op: float = 0.0
    epochs_per_op: float = 0.0
    comm_mb_per_op: float = 0.0
    prepared_hit_frac: float = 0.0
    #: (start, end) of the measured phases on the shared monotonic clock, and
    #: the program's busy time inside them — unit wall clock, or server CPU
    #: (``busy_is_cpu``) — which is what traced self times are shares of.
    windows: list = field(default_factory=list)
    busy_s: float = 0.0
    busy_is_cpu: bool = True
    #: workload-specific extras for the report (not contract metrics).
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# -- learn_seq, learn_p2_local ----------------------------------------------------------

_SETUP_SNIPPET = (
    "import repro; from repro.datasets import make_dataset; "
    "make_dataset({0!r}, seed={2}, scale={1!r})".format(*harness.DATASET)
)

#: a unit takes 2.4-4.6 s depending on the host's mood; a run asks for one
#: per this many seconds at least, so that a slow host still gives four
#: samples in a 10-s run.
LEARN_UNIT_S = 2.5


def _learn_argv(extra) -> list:
    name, scale, seed = harness.DATASET
    return ["learn", name, "--scale", scale, "--seed", str(seed), *extra]


def _field(stdout: str, key: str) -> float:
    found = re.search(rf"\b{re.escape(key)}=([\d.]+)", stdout)
    return float(found.group(1)) if found else 0.0


def run_learn(workload: str, extra, cpus, golden: dict, seed: int, seconds: float,
              smoke: bool, launcher=PLAIN) -> Outcome:
    """Fresh-interpreter CLI units, back to back, for ``seconds``.

    The problem is fixed (generator seed 0): over generator seeds 0-7 the
    same command costs 328k-487k engine ops, a +-20 % spread no 10 % bound
    survives.  ``--seed`` sets the interpreter's hash seed instead, and the
    oracle is that the theory does not notice.
    """
    env = harness.program_env(seed)
    out = Outcome()
    want = golden[workload]
    for _ in range(1 if smoke else 3):
        out.host_ms += harness.host_ms(cpus)
        unit = harness.run_unit(["-c", _SETUP_SNIPPET], env, cpus)
        out.setup_s.append(unit.wall_s)
        out.attempted += 1
        out.failed += unit.returncode != 0
    out.floor_ms = [
        harness.run_unit(["-c", "pass"], env, cpus).wall_s * 1000.0 for _ in range(3)
    ]
    min_units = 1 if smoke else max(2, int(seconds / LEARN_UNIT_S))
    t_start = time.perf_counter()
    t_prev_end = t_start
    stdout_bytes = ops = epochs = comm = 0.0
    while True:
        out.lags_ms.append((time.perf_counter() - t_prev_end) * 1000.0)
        out.host_ms += harness.host_ms(cpus)
        unit = harness.run_unit(
            [*launcher(len(out.latency_ms)), *_learn_argv(extra)], env, cpus)
        t_prev_end = time.perf_counter()
        out.attempted += 1
        ok = (
            unit.returncode == 0
            and harness.theory_text(unit.stdout) == " ".join(want["clauses"])
            and _field(unit.stdout, "training-accuracy") == want["training_accuracy"]
        )
        out.failed += not ok
        out.latency_ms.append(unit.wall_s * 1000.0)
        out.cpu_ms.append(unit.cpu_s * 1000.0)
        out.peak_rss_mb = max(out.peak_rss_mb, unit.maxrss_mb)
        stdout_bytes += len(unit.stdout)
        ops += _field(unit.stdout, "ops")
        epochs += _field(unit.stdout, "epochs")
        comm += _field(unit.stdout, "comm")
        done = len(out.latency_ms)
        if done >= min_units and time.perf_counter() - t_start >= seconds:
            break
    out.host_ms += harness.host_ms(cpus)
    out.windows.append((t_start, t_prev_end))
    out.busy_s = sum(out.latency_ms) / 1000.0
    out.busy_is_cpu = False
    out.pooled_ms = list(out.latency_ms)
    out.capacity = [done / (t_prev_end - t_start)]
    out.bytes_per_op = stdout_bytes / done
    out.engine_ops_per_op = ops / done
    out.epochs_per_op = epochs / done
    out.comm_mb_per_op = comm / done
    return out


# -- serve_* ---------------------------------------------------------------------------


class QuerySet:
    """Requests made from ``--seed`` with the answer each must get,
    computed in-process by ``theory_covered_bits`` before any server runs."""

    def __init__(self, ds, theory, seed: int, batch: int, n_requests: int):
        pool = [*ds.pos, *ds.neg]
        random.Random(seed).shuffle(pool)
        engine = Engine(ds.kb, ds.config.engine_budget(), kernel=ds.config.coverage_kernel)
        clauses = tuple(theory)
        self.requests = []
        for k in range(n_requests):
            terms = [pool[(k * batch + j) % len(pool)] for j in range(batch)]
            bits = theory_covered_bits(engine, clauses, terms)
            self.requests.append(
                ([str(t) for t in terms], [bool(bits >> i & 1) for i in range(batch)])
            )


class Sender:
    """``send(i)`` for the load generator: request ``i`` of a query set over
    one client's connection, answer checked.  One sender per thread."""

    def __init__(self, queries: QuerySet, client: ServiceClient, name: str):
        self.requests = queries.requests
        self.client = client
        self.name = name
        self.engine_ops = 0

    def __call__(self, i: int) -> bool:
        examples, want = self.requests[i % len(self.requests)]
        resp = self.client.query(self.name, examples)
        self.engine_ops += resp.get("ops", 0)
        return bool(resp.get("ok")) and resp.get("covered") == want


def _instances(seconds: float, smoke: bool) -> int:
    return 1 if smoke else max(1, min(INSTANCES, int(seconds / 3)))


def _client(server, transport: str = "json") -> ServiceClient:
    # A response that takes 30 s is a failed request, not a reason to hang.
    return ServiceClient(port=server.port, transport=transport, read_timeout=30.0)


def _start_instance(out: Outcome, env, tmp, index: int, launcher, transport: str,
                    name: str, queries: QuerySet):
    """Spawn a server; set-up ends when the first (cold) query is answered."""
    out.host_ms += harness.host_ms(harness.PROGRAM_CPUS)
    server = harness.Server(env, tmp / "reg", tmp / f"state{index}", launcher=launcher(index))
    try:
        send = Sender(queries, _client(server, transport), name)
        ok = send.client.request({"op": "ping"}).get("ok")
        ok = send(0) and ok
    except BaseException:
        server.__exit__(None, None, None)
        raise
    out.setup_s.append(time.perf_counter() - server.t_spawn)
    out.attempted += 2
    out.failed += not ok
    return server, send


def _ping_floor(out: Outcome, client: ServiceClient) -> None:
    for _ in range(50):
        t0 = time.perf_counter()
        client.request({"op": "ping"})
        out.floor_ms.append((time.perf_counter() - t0) * 1000.0)


def _prepared(client: ServiceClient) -> tuple:
    q = client.request({"op": "stats"})["query"]
    return q["prepared_hits"], q["prepared_misses"]


def run_serve_queries(batch: int, rate: float, transport: str, golden: dict, seed: int,
                      seconds: float, smoke: bool, launcher=PLAIN,
                      capacity: bool = False) -> Outcome:
    """serve_batch / serve_small: per server instance, open-loop rounds on
    one connection, each giving a p50 and the server's CPU per request;
    with ``capacity`` a closed loop on two connections follows."""
    ds = probes.reference_dataset()
    theory = probes.golden_theory(golden)
    queries = QuerySet(ds, theory, seed, batch, n_requests=64)
    env = harness.program_env(seed)
    out = Outcome()
    instances = _instances(seconds, smoke)
    share = seconds / instances
    n_round = max(10, int(rate * share * 0.9 / ROUNDS))
    hits = misses = total_bytes = engine_ops = 0
    with harness.scratch_dir() as tmp:
        probes.publish_golden(tmp / "reg", ds, theory)
        for index in range(instances):
            server, send = _start_instance(
                out, env, tmp, index, launcher, transport, probes.THEORY, queries)
            with server:
                senders = [send]
                if capacity:
                    senders.append(Sender(queries, _client(server, transport), probes.THEORY))
                for i in range(20):
                    send(i)
                _ping_floor(out, send.client)
                h0, m0 = _prepared(send.client)
                t_from, cpu_from = time.perf_counter(), server.cpu_s()
                for r in range(ROUNDS):
                    out.host_ms += harness.host_ms(harness.PROGRAM_CPUS)
                    cpu0 = server.cpu_s()
                    rnd, redone = loadgen.open_loop_checked(send, n_round, rate, first=r * n_round)
                    out.cpu_ms.append((server.cpu_s() - cpu0) / (n_round * (1 + redone)) * 1000.0)
                    out.redone += redone
                    out.latency_ms.append(harness.percentile(rnd.latencies_ms, 50))
                    out.pooled_ms += rnd.latencies_ms
                    out.lags_ms += rnd.lags_ms
                    out.attempted += len(rnd.latencies_ms)
                    out.failed += rnd.failed
                out.windows.append((t_from, time.perf_counter()))
                out.busy_s += server.cpu_s() - cpu_from
                out.host_ms += harness.host_ms(harness.PROGRAM_CPUS)
                if capacity:
                    windows, n, failed = loadgen.closed_loop(senders, max(1.0, share * 0.3))
                    out.capacity += windows
                    out.attempted += n
                    out.failed += failed
                h1, m1 = _prepared(send.client)
                hits, misses = hits + h1 - h0, misses + m1 - m0
                out.peak_rss_mb = max(out.peak_rss_mb, server.peak_rss_mb())
                for sender in senders:
                    total_bytes += sender.client.bytes_sent + sender.client.bytes_received
                    engine_ops += sender.engine_ops
                    sender.client.close()
    out.bytes_per_op = total_bytes / out.attempted
    out.engine_ops_per_op = engine_ops / out.attempted
    out.prepared_hit_frac = hits / (hits + misses) if hits + misses else 0.0
    return out


CHURN_THEORY = "churn"
CHURN_JOB_GAP_S = 0.25
CHURN_QUERY_RATE = 50.0


def run_serve_churn(golden: dict, seed: int, seconds: float, smoke: bool,
                    launcher=PLAIN, capacity: bool = False) -> Outcome:
    """Jobs on a schedule, each publishing the next version of the theory a
    query stream is reading; with ``capacity``, jobs back to back after it.

    The operation is the job (submit until ``wait`` says done: queue,
    learn, persist, publish), and its CPU is the server's over the phase
    divided by the jobs, the read stream's share included.  The query
    stream is checked and reported in the detail, not gated: its p50 sits
    between jobs and mostly repeats serve_small.
    """
    ds = make_dataset("trains", seed=0, scale="small")
    spec = JobSpec(dataset="trains", register_as=CHURN_THEORY)
    theory = run_job(spec).theory
    queries = QuerySet(ds, theory, seed, batch=1, n_requests=64)
    env = harness.program_env(seed)
    out = Outcome()
    instances = _instances(seconds, smoke)
    share = seconds / instances
    n_jobs = max(2, int(share * 0.9 / CHURN_JOB_GAP_S))
    query_ms: list = []
    hits = misses = jobs_total = engine_ops = 0
    with harness.scratch_dir() as tmp:
        registry = TheoryRegistry(str(tmp / "reg"))
        registry.publish(
            CHURN_THEORY, theory, config_sig=repr(ds.config),
            provenance={"dataset": "trains", "scale": "small", "seed": "0"},
        )
        for index in range(instances):
            v0 = registry.latest_version(CHURN_THEORY)
            server, send = _start_instance(
                out, env, tmp, index, launcher, "json", CHURN_THEORY, queries)
            with server:
                jobs = _client(server)

                def one_job() -> tuple:
                    t0 = time.perf_counter()
                    resp = jobs.wait(jobs.submit(spec))
                    return (time.perf_counter() - t0) * 1000.0, resp.get("state") == "done", resp

                one_job()
                _ping_floor(out, send.client)
                h0, m0 = _prepared(send.client)
                job_ms, job_ok, epochs = [], [], []

                def job_stream() -> None:
                    t0 = time.perf_counter()
                    for k in range(n_jobs):
                        due = t0 + k * CHURN_JOB_GAP_S
                        time.sleep(max(0.0, due - time.perf_counter()))
                        ms, ok, resp = one_job()
                        job_ms.append(ms)
                        job_ok.append(ok)
                        epochs.append(resp.get("epochs_done", 0))

                out.host_ms += harness.host_ms(harness.PROGRAM_CPUS)
                t_from, cpu_from = time.perf_counter(), server.cpu_s()
                writer = threading.Thread(target=job_stream)
                writer.start()
                rnd = loadgen.open_loop(
                    send, int(n_jobs * CHURN_JOB_GAP_S * CHURN_QUERY_RATE), CHURN_QUERY_RATE)
                writer.join()
                cpu = server.cpu_s() - cpu_from
                out.windows.append((t_from, time.perf_counter()))
                out.busy_s += cpu
                out.cpu_ms.append(cpu / n_jobs * 1000.0)
                out.host_ms += harness.host_ms(harness.PROGRAM_CPUS)
                out.latency_ms += job_ms
                query_ms += rnd.latencies_ms
                out.lags_ms += rnd.lags_ms
                burst = []
                if capacity:
                    t0 = time.perf_counter()
                    while time.perf_counter() - t0 < max(1.0, share * 0.3):
                        burst.append(one_job())
                    out.capacity.append(len(burst) / (time.perf_counter() - t0))
                made = 1 + n_jobs + len(burst)
                jobs_total += made
                out.attempted += made + len(rnd.latencies_ms)
                out.failed += rnd.failed + job_ok.count(False) + sum(not b[1] for b in burst)
                out.epochs_per_op = sum(epochs) / len(epochs)
                h1, m1 = _prepared(send.client)
                hits, misses = hits + h1 - h0, misses + m1 - m0
                out.peak_rss_mb = max(out.peak_rss_mb, server.peak_rss_mb())
                out.bytes_per_op += (jobs.bytes_sent + jobs.bytes_received) / made / instances
                engine_ops += send.engine_ops
                send.client.close()
                jobs.close()
            published = registry.latest_version(CHURN_THEORY) - v0
            if published != made:
                out.problems.append(
                    f"instance {index}: {made} jobs done but {published} versions published")
    out.pooled_ms = list(out.latency_ms)
    out.engine_ops_per_op = engine_ops / max(len(query_ms), 1)
    out.prepared_hit_frac = hits / (hits + misses) if hits + misses else 0.0
    out.detail = {
        "service.versions_published": {"value": jobs_total, "unit": "count"},
        "service.churn_query_p50_ms": {"value": harness.percentile(query_ms, 50), "unit": "ms"},
        "service.churn_query_p99_ms": {"value": harness.percentile(query_ms, 99), "unit": "ms"},
        "service.churn_query_max_ms": {"value": max(query_ms), "unit": "ms"},
    }
    return out


def run_workload(name: str, golden: dict, seed: int, seconds: float, smoke: bool,
                 launcher=PLAIN, capacity: bool = False) -> Outcome:
    # The generator allocates almost nothing; a collection in the middle of
    # a 3 ms gap would be charged to the server as latency.
    gc.disable()
    os.sched_setaffinity(0, harness.GENERATOR_CPUS)
    try:
        if name == "learn_seq":
            return run_learn(name, (), harness.PROGRAM_CPUS, golden, seed, seconds, smoke,
                             launcher)
        if name == "learn_p2_local":
            # a master and two workers: every core the benchmark may use
            return run_learn(name, ("--p", "2", "--backend", "local"), harness.ALL_CPUS,
                             golden, seed, seconds, smoke, launcher)
        if name == "serve_batch":
            return run_serve_queries(probes.LARGE_BATCH, 30.0, "json", golden, seed, seconds,
                                     smoke, launcher, capacity)
        if name == "serve_small":
            return run_serve_queries(probes.SMALL_BATCH, 300.0, "wire", golden, seed, seconds,
                                     smoke, launcher, capacity)
        if name == "serve_churn":
            return run_serve_churn(golden, seed, seconds, smoke, launcher, capacity)
        raise ValueError(f"unknown workload {name!r}")
    finally:
        os.sched_setaffinity(0, harness.ALL_CPUS)
        gc.enable()
