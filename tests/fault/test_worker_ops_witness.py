"""What the workers of a parallel run computed, pinned per case.

``tests/data/golden_runs.json`` pins each parallel case's messages,
bytes and virtual seconds, and ``tests/data/golden_healing.json`` the
same under a fault plan; neither pins the work the workers did.  This
witness does, for the 12 ``bfs`` parallel cases of the first and the 56
cases of the second, each on the simulated cluster:

* ``ops``: the summed ``engine.total_ops`` of the run's worker processes
  (the sim backend returns the process objects; a crashed rank's are
  absent);
* ``cache``: each logical worker's evaluation-cache ``[hits, misses]``.

A change to what crosses the wire (which masks, which lineage) must leave
both alone: the bytes may move, the engine work may not.  The file was
written at commit 6ed2193 by

    PYTHONPATH=src python tests/fault/test_worker_ops_witness.py > tests/data/worker_ops_witness.json
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.backend import SimBackend
from test_golden_healing import CASES as HEALING_CASES
from test_golden_healing import run_result

WITNESS_PATH = pathlib.Path(__file__).resolve().parents[1] / "data" / "worker_ops_witness.json"

PLAIN_CASES = [
    f"{ds}/bfs/{algo}"
    for ds in ("trains", "krki", "carcinogenesis")
    for algo in ("p2mdie2", "p2mdie3", "coverage_parallel", "independent")
]


class RecordingSim(SimBackend):
    """The default sim backend, keeping its last run's artifacts."""

    last = None

    def _run(self, ordered, plan):
        self.last = super()._run(ordered, plan)
        return self.last


def worker_record(run_case) -> dict:
    """``{"ops", "cache"}`` of one case; ``run_case(backend)`` runs it."""
    backend = RecordingSim()
    res = run_case(backend)
    ops = sum(
        proc.engine.total_ops
        for proc in backend.last.procs
        if proc.rank != 0 and proc.engine is not None
    )
    cache = {str(rank): list(hm) for rank, hm in sorted(res.cache_stats.items())}
    return {"ops": ops, "cache": cache}


@pytest.fixture(scope="module")
def witness() -> dict:
    return json.loads(WITNESS_PATH.read_text())


def test_witness_holds_every_case(witness):
    assert sorted(witness["plain"]) == sorted(PLAIN_CASES)
    assert sorted(witness["healing"]) == sorted(HEALING_CASES)


@pytest.mark.parametrize("key", PLAIN_CASES)
def test_plain_run_does_the_same_worker_work(golden_runs, witness, key):
    record = worker_record(lambda backend: golden_runs.result(key, backend=backend))
    assert record == witness["plain"][key]


@pytest.mark.parametrize("key", HEALING_CASES)
def test_healing_run_does_the_same_worker_work(witness, key):
    record = worker_record(lambda backend: run_result(key, backend=backend))
    assert record == witness["healing"][key]


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from conftest import GoldenRuns

    golden = GoldenRuns()
    commit = subprocess.check_output(["git", "rev-parse", "HEAD"], text=True).strip()
    doc = {
        "provenance": {
            "commit": commit,
            "command": "PYTHONPATH=src python tests/fault/test_worker_ops_witness.py "
            "> tests/data/worker_ops_witness.json",
        },
        "plain": {
            key: worker_record(lambda backend: golden.result(key, backend=backend))
            for key in PLAIN_CASES
        },
        "healing": {
            key: worker_record(lambda backend: run_result(key, backend=backend))
            for key in HEALING_CASES
        },
    }
    # One line per case, as in the golden files: diffs stay readable.
    out = ["{", f' "provenance": {json.dumps(doc["provenance"])},']
    for i, section in enumerate(("plain", "healing")):
        out.append(f" {json.dumps(section)}: {{")
        out.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc[section].items()))
        out.append(" }" + ("," if i == 0 else ""))
    out.append("}")
    sys.stdout.write("\n".join(out) + "\n")
