"""Every entry point that runs a learner runs the same learner.

``repro learn``, :func:`repro.service.jobs.run_job`, the table cells of
:func:`repro.experiments.runner.run_cell` and the fault-free base run of
:func:`repro.experiments.faultsweep.run_fault_sweep` each reach one of the
four front-ends (``mdie``, ``run_p2mdie``, ``run_coverage_parallel``,
``run_independent``).  For each (dataset, algo, p, width, seed) these tests
check that an entry point reports what the direct front-end call reports:
the theory, the epochs, the uncovered count, the seconds and the MB.

The datasets are krki (5-8 epochs) and mesh (7-10 epochs): multi-epoch
runs, so a difference in the checkpoint or cap plumbing would show.
Everything runs on the simulator, whose seconds are exact.
"""

import pytest

from repro.cli import main
from repro.cluster.costmodel import sequential_seconds
from repro.datasets import make_dataset
from repro.experiments.crossval import kfold
from repro.experiments.faultsweep import run_fault_sweep
from repro.experiments.runner import run_cell
from repro.fault.plan import FaultPlan
from repro.ilp import accuracy, mdie
from repro.logic.io import theory_to_prolog
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie
from repro.service.jobs import WIDTH_NOLIMIT, JobSpec, run_job

#: (dataset, p, width, seed); width None is the paper's "nolimit".
CASES = [
    ("krki", 2, 10, 0),
    ("mesh", 3, None, 1),
]
CASE_IDS = [f"{d}-p{p}-w{w or 'nolimit'}-s{s}" for d, p, w, s in CASES]


def _direct(algo, ds, p, width, seed, pos=None, neg=None):
    """The front-end called by hand: (theory, epochs, uncovered, seconds, MB)."""
    pos = ds.pos if pos is None else pos
    neg = ds.neg if neg is None else neg
    if algo == "mdie":
        res = mdie(ds.kb, pos, neg, ds.modes, ds.config, seed=seed)
        return res.theory, res.epochs, res.uncovered, sequential_seconds(res), 0.0
    if algo == "p2mdie":
        res = run_p2mdie(ds.kb, pos, neg, ds.modes, ds.config, p=p, width=width, seed=seed)
    elif algo == "covpar":
        res = run_coverage_parallel(ds.kb, pos, neg, ds.modes, ds.config, p=p, seed=seed)
    else:
        res = run_independent(ds.kb, pos, neg, ds.modes, ds.config, p=p, width=width, seed=seed)
    return res.theory, res.epochs, res.uncovered, res.seconds, res.mbytes


def _spec(dataset, algo, p, width, seed):
    return JobSpec(
        dataset, algo, p=p, seed=seed, width=WIDTH_NOLIMIT if width is None else width
    )


def _clause_lines(text: str) -> list:
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]


def _stat(out: str, key: str) -> str:
    for tok in out.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    raise AssertionError(f"no {key}= in output:\n{out}")


@pytest.mark.parametrize("algo", ["mdie", "p2mdie"])
@pytest.mark.parametrize("dataset,p,width,seed", CASES, ids=CASE_IDS)
def test_learn_matches_run_job(algo, dataset, p, width, seed, capsys):
    argv = ["learn", dataset, "--seed", str(seed)]
    if algo == "p2mdie":
        argv += ["--p", str(p), "--width", "nolimit" if width is None else str(width)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    job = run_job(_spec(dataset, algo, p, width, seed))
    assert _clause_lines(out) == _clause_lines(theory_to_prolog(job.theory))
    assert int(_stat(out, "epochs")) == job.epochs
    assert int(_stat(out, "uncovered")) == job.uncovered
    assert _stat(out, "virtual-time") == f"{job.seconds:.1f}s"
    if algo == "p2mdie":
        assert _stat(out, "comm") == f"{job.mbytes:.3f}MB"
    else:
        assert int(_stat(out, "ops")) == job.ops


@pytest.mark.parametrize("algo", ["mdie", "p2mdie", "covpar", "independent"])
@pytest.mark.parametrize("dataset,p,width,seed", CASES, ids=CASE_IDS)
def test_run_job_matches_front_end(algo, dataset, p, width, seed):
    job = run_job(_spec(dataset, algo, p, width, seed))
    ds = make_dataset(dataset, seed=seed)
    theory, epochs, uncovered, seconds, mbytes = _direct(algo, ds, p, width, seed)
    assert job.theory == theory
    assert (job.epochs, job.uncovered, job.seconds, job.mbytes) == (
        epochs, uncovered, seconds, mbytes
    )
    assert job.epochs > 1 or algo == "independent"  # one merge epoch


@pytest.mark.parametrize("cell_p", [1, 2])
@pytest.mark.parametrize("dataset,p,width,seed", CASES, ids=CASE_IDS)
def test_run_cell_matches_front_end(cell_p, dataset, p, width, seed):
    # A RunRecord keeps the theory's size and its test accuracy, not the
    # theory itself; the seconds (ops-derived at p = 1) pin the run.
    ds = make_dataset(dataset, seed=seed)
    fold = next(iter(kfold(ds.pos, ds.neg, k=2, seed=seed)))
    rec = run_cell(ds, fold, p=cell_p, width=width, seed=seed)
    algo = "mdie" if cell_p == 1 else "p2mdie"
    theory, epochs, uncovered, seconds, mbytes = _direct(
        algo, ds, cell_p, width, seed, list(fold.train_pos), list(fold.train_neg)
    )
    engine = ds.config.make_engine(ds.kb)
    acc = accuracy(engine, theory, list(fold.test_pos), list(fold.test_neg))
    assert (rec.theory_size, rec.test_accuracy) == (len(theory), acc)
    assert (rec.epochs, rec.uncovered, rec.seconds, rec.mbytes) == (
        epochs, uncovered, seconds, mbytes
    )


@pytest.mark.parametrize("strategy", ["p2mdie", "covpar", "independent"])
@pytest.mark.parametrize("dataset", ["krki", "mesh"])
def test_fault_sweep_base_matches_front_end(strategy, dataset, monkeypatch):
    # The sweep's fault-free base is its own yardstick: capture the result
    # every parallel front-end assembles, and check the record against it.
    import repro.parallel.p2mdie as p2

    results = []
    assemble = p2._result_from_run

    def spy(run):
        results.append(assemble(run))
        return results[-1]

    monkeypatch.setattr(p2, "_result_from_run", spy)
    (rec,) = run_fault_sweep(
        dataset=dataset, ps=(2,), strategies=(strategy,),
        scenarios={"empty": (FaultPlan(), 0)},
    )
    base = results[0]
    monkeypatch.undo()
    ds = make_dataset(dataset)
    kb, pos, neg, modes, config = ds.kb, ds.pos, ds.neg, ds.modes, ds.config
    if strategy == "p2mdie":
        res = run_p2mdie(kb, pos, neg, modes, config, p=2, width=10)
    elif strategy == "covpar":
        res = run_coverage_parallel(kb, pos, neg, modes, config, p=2, batch_size=4, max_epochs=8)
    else:
        res = run_independent(kb, pos, neg, modes, config, p=2)
    assert base.theory == res.theory
    assert (base.epochs, base.uncovered) == (res.epochs, res.uncovered)
    assert (rec.fault_free_seconds, rec.fault_free_mbytes) == (res.seconds, res.mbytes)
    assert rec.parity
