"""Search-layer parity (PR 3): each mechanism against its reference.

Hash-consed terms, variant-keyed caches and rule bags, the saturation
cache and the wire codec are pure optimisations: every learned theory,
per-epoch log and coverage bitset must be what the plain implementations
produce.  They no longer have config switches; the *functions* they
replaced are still in ``src/`` as references, so these tests put a
reference back in place of one mechanism at a time and run the real
learners:

* saturation cache   -> ``build_bottom`` (each learner's module global);
* variant-keyed cache and bag slots -> plain clause equality
  (``Clause.variant_key`` returning the clause itself);
* wire codec sizing  -> pickle (``marshal_payload`` replaced by
  ``pickle.dumps``; the sim sizes every message through it);
* interning          -> intern tables capped at zero, in a subprocess.

The expected side of every comparison is ``golden_runs.runs`` — what
commit f2ff849 learned with all of them switched off (see
``tests/test_golden_runs.py``).  Class and test names date from when the
mechanisms were ``ILPConfig`` flags.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.cluster import message
from repro.datasets import make_dataset
from repro.ilp.bottom import build_bottom
from repro.ilp.mdie import mdie
from repro.logic.clause import Clause
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

DATASETS = [
    ("trains", dict(seed=0, scale="small")),
    ("krki", dict(seed=0, n_pos=40, n_neg=40)),
]


#: every module that saturates seeds (``repro.ilp.mdie`` the module, not
#: the function ``repro.ilp`` re-exports under the same name).
SATURATING_MODULES = (
    "repro.ilp.mdie",
    "repro.fault.recovery",
    "repro.parallel.independent",
    "repro.parallel.coverage_parallel",
)


def uncached_saturation(monkeypatch):
    for name in SATURATING_MODULES:
        monkeypatch.setattr(importlib.import_module(name), "build_bottom_cached", build_bottom)


def plain_clause_keys(monkeypatch):
    monkeypatch.setattr(Clause, "variant_key", lambda self: self)


def pickle_sizing(monkeypatch):
    monkeypatch.setattr(
        message, "marshal_payload", lambda payload: pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
    )


class TestSequentialFlagParity:
    """Sequential MDIE with none, one or the other mechanism replaced."""

    @pytest.mark.parametrize("name,kw", DATASETS)
    @pytest.mark.parametrize(
        "references",
        [(), (uncached_saturation,), (plain_clause_keys,)],
        ids=["all-on", "fp-only", "satcache-only"],
    )
    def test_vs_all_off(self, name, kw, references, golden_runs, monkeypatch):
        for substitute in references:
            substitute(monkeypatch)
        ds = make_dataset(name, **kw)
        res = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)
        assert golden_runs.record(res) == golden_runs.runs[f"{name}/bfs/mdie"]


class TestParallelFlagParity:
    """The parallel strategies with every mechanism replaced at once."""

    @pytest.fixture(autouse=True)
    def references(self, monkeypatch):
        uncached_saturation(monkeypatch)
        plain_clause_keys(monkeypatch)
        pickle_sizing(monkeypatch)

    @pytest.mark.parametrize("name,kw", DATASETS)
    def test_p2mdie(self, name, kw, golden_runs):
        ds = make_dataset(name, **kw)
        res = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=3, seed=0)
        assert golden_runs.record(res) == golden_runs.runs[f"{name}/bfs/p2mdie3"]
        # pickle sizing really was in force: same traffic, more bytes
        pins = golden_runs.pins[f"{name}/bfs/p2mdie3"]
        assert res.comm.messages == pins["messages"]
        assert res.comm.bytes_total > pins["bytes"]

    def test_independent_and_covpar(self, golden_runs):
        ds = golden_runs.dataset("trains")
        args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
        a = run_independent(*args, p=2, seed=0)
        assert golden_runs.record(a) == golden_runs.runs["trains/bfs/independent"]
        b = run_coverage_parallel(*args, p=2, seed=0)
        assert golden_runs.record(b) == golden_runs.runs["trains/bfs/coverage_parallel"]


def test_interning_parity_subprocess(golden_runs):
    """A process whose struct table holds nothing — every struct equality
    takes the structural fallback — learns the identical theory and log.
    (Constants have no cap: they are canonical in every process.)"""
    prog = (
        "import json\n"
        "from repro.logic import terms\n"
        "terms._STRUCT_CAP = 0\n"
        "from repro.datasets import make_dataset\n"
        "from repro.ilp.mdie import mdie\n"
        "ds = make_dataset('trains', seed=0, scale='small')\n"
        "assert not ds.pos[0].interned\n"
        "res = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)\n"
        "print(json.dumps({'theory': [str(c) for c in res.theory],\n"
        "                  'epochs': res.epochs, 'uncovered': res.uncovered,\n"
        "                  'log': [[str(s), str(r), c] for s, r, c, _ in res.log]}))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True, env=env, cwd=root
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == golden_runs.runs["trains/bfs/mdie"]
