"""Suite-wide fixtures: the golden runs that replaced the reference
switches, and the engine witness that replaced the second SLD kernel.

``tests/data/golden_runs.json`` was written at commit f2ff849, the last one
where coverage inheritance, variant-keyed caches and bags, the saturation
cache, the wire codec and term interning could be switched off: ``runs``
is what the learner computed with all five off, ``pins`` what the default
path cost.  The file's ``provenance`` block and ``docs/golden-runs.md``
hold the command and the writer script.

``tests/data/engine_witness.json`` holds what the seed's recursive
interpreter answered (``tests/logic/test_engine_witness.py`` says where
and how it was written).
"""

import json
import pathlib

import pytest

from repro.datasets import make_dataset
from repro.ilp.mdie import mdie
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / "golden_runs.json"
ENGINE_WITNESS_PATH = GOLDEN_PATH.with_name("engine_witness.json")


class GoldenRuns:
    """The committed witness plus the means to re-run any of its cases.

    A case key is ``dataset/strategy/algo`` with algo one of ``mdie``,
    ``p2mdie2``, ``p2mdie3``, ``coverage_parallel``, ``independent``.
    """

    def __init__(self):
        doc = json.loads(GOLDEN_PATH.read_text())
        self.provenance: dict = doc["provenance"]
        self.runs: dict = doc["runs"]
        self.pins: dict = doc["pins"]
        self._dataset_kw: dict = doc["datasets"]
        self._datasets: dict = {}
        self._results: dict = {}

    def dataset(self, name: str):
        if name not in self._datasets:
            self._datasets[name] = make_dataset(name, **self._dataset_kw[name])
        return self._datasets[name]

    @staticmethod
    def record(res) -> dict:
        """A run's theory / epochs / uncovered / per-epoch log, in the
        shape the file stores (sequential and parallel results alike)."""
        if hasattr(res, "epoch_logs"):
            log = [
                [l.epoch, l.bag_size, [str(c) for c in l.accepted], l.pos_covered]
                for l in res.epoch_logs
            ]
        else:
            log = [[str(s), None if r is None else str(r), c] for s, r, c, _ in res.log]
        return {
            "theory": [str(c) for c in res.theory],
            "epochs": res.epochs,
            "uncovered": res.uncovered,
            "log": log,
        }

    def run(self, key: str) -> tuple[dict, dict]:
        """``(record, pins)`` of one case as today's learner runs it, in
        the file's own shapes (each case runs once per session)."""
        if key not in self._results:
            self._results[key] = self._run(key)
        return self._results[key]

    def _run(self, key: str) -> tuple[dict, dict]:
        name, strategy, algo = key.split("/")
        ds = self.dataset(name)
        args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config.replace(search_strategy=strategy))
        if algo == "mdie":
            res = mdie(*args, seed=0)
            return self.record(res), {"ops": res.ops}
        if algo.startswith("p2mdie"):
            res = run_p2mdie(*args, p=int(algo[-1]), seed=0)
        elif algo == "coverage_parallel":
            res = run_coverage_parallel(*args, p=2, seed=0)
        else:
            res = run_independent(*args, p=2, seed=0)
        pins = {
            "messages": res.comm.messages,
            "bytes": res.comm.bytes_total,
            "seconds": repr(res.seconds),
        }
        return self.record(res), pins


@pytest.fixture(scope="session")
def golden_runs() -> GoldenRuns:
    return GoldenRuns()


class EngineWitness:
    """The committed engine witness, section by section.

    ``battery`` and ``exhaustion`` map a query to ``{"recursive" |
    "memo_off" | "memo_on": [solutions, total_ops, last_exhausted]}``;
    ``bitsets`` maps a coverage case to ``[covered, exhausted]``; ``runs``
    maps a learner case to :meth:`record`'s shape.
    """

    record = staticmethod(GoldenRuns.record)

    def __init__(self):
        doc = json.loads(ENGINE_WITNESS_PATH.read_text())
        self.provenance: dict = doc["provenance"]
        self.battery: dict = doc["battery"]
        self.exhaustion: dict = doc["exhaustion"]
        self.bitsets: dict = doc["bitsets"]
        self.runs: dict = doc["runs"]


@pytest.fixture(scope="session")
def engine_witness() -> EngineWitness:
    return EngineWitness()
