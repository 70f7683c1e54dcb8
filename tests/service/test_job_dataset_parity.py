"""Jobs and queries that share a dataset report what fresh datasets give.

The service keeps one dataset per ``(dataset, seed, scale)`` in
:func:`repro.service.jobs.shared_dataset`: jobs, the chunks of a
preemptible job and the query tier share its knowledge base, the argument
indexes built on demand and the saturation cache keyed by knowledge base
(``repro.ilp.bottom``).  A saturation hit replays the operations it
recorded, so none of that state may show in a result.

For every dataset and algorithm these tests run
:func:`~repro.service.jobs.run_job` twice, the first on a freshly built
dataset and the second on the shared one, and compare every field of the
two :class:`~repro.run.RunOutcome` objects: theory, epochs, seconds,
uncovered, ops, MB, evaluation-cache counters, epoch logs and the summary
the protocol serves.  A third job runs on the now-warm dataset: it reports
the same outcome, and as ``mdie`` it compiles no coverage plan (plans are
kept per knowledge base, ``repro.logic.engine``).  Then eight threads miss
on one dataset at once, two slot threads run identical jobs while a query
stream reads their dataset (once more with the plan table cleared
mid-run), and the cache is filled past its cap.  Everything runs on the
simulator, whose seconds are exact.
"""

import sys
import threading
from collections import OrderedDict
from dataclasses import fields

import pytest

from repro.datasets import make_dataset
from repro.ilp import coverage
from repro.ilp.coverage import theory_covered_bits
from repro.logic.io import theory_to_prolog
from repro.run import RunOutcome
from repro.service import JobScheduler, QueryEngine, TheoryRegistry
from repro.service import jobs
from repro.service.jobs import JobSpec, run_job

DATASETS = ("trains", "krki", "mesh", "carcinogenesis", "pyrimidines")
ALGOS = ("mdie", "p2mdie", "covpar", "independent")


@pytest.fixture(autouse=True)
def cold_cache(monkeypatch):
    """An empty dataset cache: the first job of a test builds its dataset."""
    monkeypatch.setattr(jobs, "_datasets", OrderedDict())


def _fields(outcome: RunOutcome) -> dict:
    """Every field of ``outcome`` as comparable plain data."""
    out = {f.name: getattr(outcome, f.name) for f in fields(RunOutcome)}
    out["theory"] = theory_to_prolog(outcome.theory)
    out["epoch_logs"] = [
        (log.epoch, log.bag_size, [str(c) for c in log.accepted], log.pos_covered,
         log.cache_hits, log.cache_misses)
        for log in outcome.epoch_logs
    ]
    out["summary"] = outcome.summary()
    return out


def _fresh_bits(theory, name: str, seed: int, examples) -> int:
    """Coverage of ``examples`` on a dataset nothing else has touched."""
    ds = make_dataset(name, seed=seed)
    return theory_covered_bits(ds.config.make_engine(ds.kb), tuple(theory), examples)


def _publish(registry, name: str, theory, dataset: str, seed: int) -> None:
    registry.publish(
        name, theory, provenance={"dataset": dataset, "seed": str(seed), "scale": "small"}
    )


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_second_job_reports_the_first_jobs_outcome(dataset, algo):
    spec = JobSpec(dataset, algo, p=2)
    first, second = _fields(run_job(spec)), _fields(run_job(spec))
    assert second == first
    assert first["theory"] and first["clock"] == "virtual"


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_third_job_on_a_warm_dataset_compiles_no_plans(dataset, algo, monkeypatch):
    spec = JobSpec(dataset, algo, p=2)
    fresh = _fields(run_job(spec))
    run_job(spec)
    compiled, compile_plan = [], coverage.compile_plan

    def counting(engine, clause):
        compiled.append(clause)
        return compile_plan(engine, clause)

    monkeypatch.setattr(coverage, "compile_plan", counting)
    assert _fields(run_job(spec)) == fresh
    assert compiled == []


def test_threads_missing_one_dataset_get_the_first_published(monkeypatch):
    """More threads than cores miss on one key at once: each builds, and
    every one gets the dataset that was published first."""
    built, build = [], jobs.make_dataset

    def recording_build(*args, **kwargs):
        ds = build(*args, **kwargs)
        built.append(ds)
        return ds

    monkeypatch.setattr(jobs, "make_dataset", recording_build)
    arrived = threading.Barrier(8, timeout=30)
    got = [None] * 8

    def ask(i):
        arrived.wait()
        got[i] = jobs.shared_dataset("trains", 0, "small")

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert list(jobs._datasets) == [("trains", 0, "small")]
    assert all(ds is jobs._datasets["trains", 0, "small"] for ds in got)
    assert any(ds is got[0] for ds in built)


@pytest.mark.parametrize("algo", ALGOS)
def test_concurrent_jobs_and_queries_on_one_dataset(algo, tmp_path):
    """Six identical jobs on two slots each report the one-slot outcome,
    and a query stream reading their dataset meanwhile answers what a
    fresh dataset answers."""
    spec = JobSpec("krki", algo, p=2)
    with JobScheduler(slots=1) as sched:
        alone = _fields(sched.result(sched.wait(sched.submit(spec), timeout=120)["job"]))
    registry = TheoryRegistry(str(tmp_path / "reg"))
    theory = run_job(spec).theory
    _publish(registry, "krki", theory, "krki", 0)
    ds = make_dataset("krki", seed=0)
    examples = list(ds.pos) + list(ds.neg)
    want = _fresh_bits(theory, "krki", 0, examples)
    jobs._datasets.clear()  # the jobs and the queries race to build it

    qe = QueryEngine(registry)
    answers, stop = [], threading.Event()

    def read():
        while not stop.is_set() or not answers:
            frames = []
            got = qe.query("krki", examples, shards=3, on_frame=frames.append)
            answers.append((got.covered, len(frames)))

    reader = threading.Thread(target=read)
    with JobScheduler(slots=2) as sched:
        ids = [sched.submit(spec) for _ in range(6)]
        reader.start()
        sched.wait_all(timeout=300)
        stop.set()
        reader.join(timeout=120)
        together = [_fields(sched.result(i)) for i in ids]
    assert not reader.is_alive()
    assert all(got == alone for got in together)
    assert answers and all(got == (want, 3) for got in answers)


def test_plan_table_cleared_mid_run_under_two_slots_and_a_query_stream(tmp_path, monkeypatch):
    """With a KB's plan table capped at 4 clauses it is cleared over and
    over while two slot threads and a query stream share it: every job
    reports the one-slot outcome and every query the one-thread answer,
    ops included."""
    spec = JobSpec("krki", "mdie", p=2)
    outcome = run_job(spec)
    alone = _fields(outcome)
    registry = TheoryRegistry(str(tmp_path / "reg"))
    _publish(registry, "krki", outcome.theory, "krki", 0)
    ds = make_dataset("krki", seed=0)
    examples = list(ds.pos) + list(ds.neg)
    want = QueryEngine(registry).query("krki", examples, shards=3)
    jobs._datasets.clear()
    monkeypatch.setattr(coverage, "TABLE_CAP", 4)

    qe = QueryEngine(registry)
    answers, stop = [], threading.Event()

    def read():
        while not stop.is_set() or not answers:
            frames = []
            got = qe.query("krki", examples, shards=3, on_frame=frames.append)
            answers.append((got.covered, got.ops, len(frames)))

    reader = threading.Thread(target=read)
    with JobScheduler(slots=2) as sched:
        ids = [sched.submit(spec) for _ in range(4)]
        reader.start()
        sched.wait_all(timeout=300)
        stop.set()
        reader.join(timeout=120)
        together = [_fields(sched.result(i)) for i in ids]
    assert not reader.is_alive()
    assert all(got == alone for got in together)
    assert answers and all(got == (want.covered, want.ops, 3) for got in answers)


def test_cache_keeps_at_most_cap_datasets(tmp_path):
    """Jobs on cap + 3 seeds evict the oldest datasets; an evicted dataset
    built again gives the same outcome, and a theory prepared on an evicted
    dataset still answers correctly."""
    cap = jobs.DATASET_CACHE_CAP
    registry = TheoryRegistry(str(tmp_path / "reg"))
    seed0 = run_job(JobSpec("trains", "mdie", seed=0))
    _publish(registry, "trains", seed0.theory, "trains", 0)
    qe = QueryEngine(registry)
    prepared = qe.prepare("trains")
    with JobScheduler(slots=1) as sched:
        ids = [sched.submit(JobSpec("trains", "mdie", seed=s)) for s in range(1, cap + 4)]
        sched.wait_all(timeout=300)
        first = _fields(sched.result(ids[0]))
    assert len(jobs._datasets) == cap
    assert ("trains", 0, "small") not in jobs._datasets
    assert ("trains", 1, "small") not in jobs._datasets
    assert _fields(run_job(JobSpec("trains", "mdie", seed=1))) == first

    ds = make_dataset("trains", seed=0)
    examples = list(ds.pos) + list(ds.neg)
    want = _fresh_bits(seed0.theory, "trains", 0, examples)
    assert qe.prepare("trains") is prepared
    assert qe.query("trains", examples).covered == want
    assert qe.dataset_for("trains").kb is not prepared.engine.kb  # rebuilt on demand
