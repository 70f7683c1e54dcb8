"""The healing protocol's cost witness: what recovery learns *and* what it costs.

``tests/data/golden_runs.json`` pins messages / bytes / virtual seconds of
plan-free runs only; ``test_ft_matrix.py`` and ``test_recovery_sim.py``
compare theories and logs.  This file holds the other half: on the
simulated cluster, for every strategy under every kind of plan the suite
and ``repro faults`` use, the theory, the epoch log (with the pulse's
cache counters), the message and byte totals, the virtual makespan, the
master's recovery narrative verbatim and the order of injected faults.

``tests/data/golden_healing.json`` was written at commit 5343caf — the
last one where the healing protocol was a separate twin of the plain one
(``_run_ft``, ``_ft_restart`` / ``_ft_stage`` / ``_ft_evaluate``) — by

    git checkout 5343caf && PYTHONPATH=src python tests/fault/test_golden_healing.py > tests/data/golden_healing.json

Same rules as ``docs/golden-runs.md``: extend with new cases, never
rewrite one; a change that means to move a cost says so.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.datasets import make_dataset
from repro.fault.plan import FaultPlan, MessageLoss, Straggler, WorkerCrash, WorkerJoin
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

GOLDEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "data" / "golden_healing.json"

DATASETS = {"trains": dict(seed=0, scale="small"), "krki": dict(seed=0, scale="small")}
ALGOS = ("p2mdie2", "p2mdie3", "covpar2", "independent2")
TIMEOUT = 2.0


def scenarios(p: int) -> dict:
    """scenario -> (plan, spares): ``experiments.faultsweep.default_scenarios``
    plus the loss, eval-phase crash and crash-then-join plans of
    ``test_recovery_sim.py`` (the joining spare is rank ``p + 1``)."""
    crash = WorkerCrash(rank=2, on_recv=2)
    return {
        "supervised": (FaultPlan(supervise=True, timeout=TIMEOUT), 0),
        "crash": (FaultPlan(crashes=(crash,), timeout=TIMEOUT), 0),
        "crash_standby": (FaultPlan(crashes=(crash,), timeout=TIMEOUT), 1),
        "straggler": (FaultPlan(stragglers=(Straggler(rank=1, factor=4.0),), timeout=30.0), 0),
        "loss": (FaultPlan(losses=(MessageLoss(src=0, dst=2, nth=3),), timeout=TIMEOUT), 0),
        "crash_eval": (
            FaultPlan(crashes=(WorkerCrash(rank=1, on_recv=1, tag="evaluate"),), timeout=TIMEOUT),
            0,
        ),
        "crash_join": (
            FaultPlan(
                crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),),
                joins=(WorkerJoin(rank=p + 1, epoch=3),),
                timeout=TIMEOUT,
            ),
            1,
        ),
    }


CASES = [f"{ds}/{algo}/{sc}" for ds in DATASETS for algo in ALGOS for sc in scenarios(2)]

_datasets: dict = {}


def run_result(key: str, backend="sim"):
    """The front-end's result of one case, on ``backend``."""
    name, algo, scenario = key.split("/")
    if name not in _datasets:
        _datasets[name] = make_dataset(name, **DATASETS[name])
    ds = _datasets[name]
    p = int(algo[-1])
    plan, spares = scenarios(p)[scenario]
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    common = dict(p=p, seed=0, backend=backend, fault_plan=plan, spares=spares)
    if algo.startswith("p2mdie"):
        return run_p2mdie(*args, width=10, **common)
    if algo.startswith("covpar"):
        return run_coverage_parallel(*args, batch_size=4, max_epochs=8, **common)
    return run_independent(*args, **common)


def run_case(key: str) -> dict:
    res = run_result(key)
    return {
        "theory": [str(c) for c in res.theory],
        "log": [
            [l.epoch, l.bag_size, [str(c) for c in l.accepted], l.pos_covered,
             l.cache_hits, l.cache_misses]
            for l in res.epoch_logs
        ],
        "messages": res.comm.messages,
        "bytes": res.comm.bytes_total,
        "seconds": repr(res.seconds),
        "fault_events": list(res.fault_events),
        "fault_log": [[f.kind, f.rank] for f in res.fault_log],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_is_the_parent_commit_matrix(golden):
    assert golden["provenance"]["commit"].startswith("5343caf")
    assert golden["datasets"] == DATASETS
    assert sorted(golden["cases"]) == sorted(CASES)


def test_the_matrix_heals_something(golden):
    """Guards the witness itself: plans that never fire would pin nothing."""
    cases = golden["cases"]
    assert sum(1 for c in cases.values() if ["crash", 2] in c["fault_log"]) >= 12
    assert sum(1 for c in cases.values() if c["fault_log"] and c["fault_log"][0][0] == "drop") >= 6
    assert any("migrated to host" in ev for c in cases.values() for ev in c["fault_events"])
    assert any("joined the pool" in ev for c in cases.values() for ev in c["fault_events"])


@pytest.mark.parametrize("key", CASES)
def test_heals_to_the_same_theory_at_the_same_cost(golden, key):
    assert run_case(key) == golden["cases"][key]


if __name__ == "__main__":
    commit = subprocess.check_output(["git", "rev-parse", "HEAD"], text=True).strip()
    doc = {
        "provenance": {
            "commit": commit,
            "command": "git checkout 5343caf && PYTHONPATH=src python "
            "tests/fault/test_golden_healing.py > tests/data/golden_healing.json",
        },
        "datasets": DATASETS,
        "cases": {key: run_case(key) for key in CASES},
    }
    # One line per case, as in golden_runs.json: diffs stay readable.
    out = ["{"]
    for i, (section, body) in enumerate(doc.items()):
        out.append(f" {json.dumps(section)}: {{")
        out.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in body.items()))
        out.append(" }" + ("," if i < len(doc) - 1 else ""))
    out.append("}")
    sys.stdout.write("\n".join(out) + "\n")
