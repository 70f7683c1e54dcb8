"""Search bookkeeping and generated background knowledge, frozen.

``tests/data/search_witness.json`` holds two sections:

* ``datasets``: for each generator x {small, paper} at seed 0, the
  knowledge base's ``n_facts`` and ``version`` and the sha256 of its facts
  (predicates in sorted order, each store's facts in store order), then
  the positives and the negatives.  Constants render through ``repr`` of
  their value, so ``2``, ``2.0`` and ``'2'`` differ.
* ``variant_keys``: for each sequential ``mdie`` case of
  ``tests/data/golden_runs.json``, the number and the sha256 of the
  ``Clause.variant_key()`` strings that ``ExampleStore.evaluate`` sees, in
  the order it sees them.  The ``best_first`` and ``beam`` cases, whose
  strategies ``ILPConfig.v4`` retired, are kept unread.

How a key or a fact is computed may change; what it is may not.  The file
is written by running this module (the retired cases are copied over):

    PYTHONPATH=src python tests/test_search_witness.py > tests/data/search_witness.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.datasets import make_dataset
from repro.ilp.mdie import mdie
from repro.ilp.store import ExampleStore
from repro.logic.terms import Const, Struct

DATA = Path(__file__).resolve().parent / "data"
GENERATORS = ("trains", "krki", "carcinogenesis", "mesh", "pyrimidines")
SCALES = ("small", "paper")
STRATEGIES = ("bfs",)
RETIRED_STRATEGIES = ("best_first", "beam")
MDIE_NAMES = ("trains", "krki", "carcinogenesis")
MDIE_CASES = [f"{name}/{strategy}/mdie" for name in MDIE_NAMES for strategy in STRATEGIES]
RETIRED_CASES = [f"{name}/{strategy}/mdie" for name in MDIE_NAMES for strategy in RETIRED_STRATEGIES]


def _render(t) -> str:
    if type(t) is Const:
        return repr(t.value)
    if type(t) is Struct:
        return t.functor + "(" + ",".join(_render(a) for a in t.args) + ")"
    raise TypeError(f"not a ground term: {t!r}")


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dataset_record(name: str, scale: str) -> dict:
    ds = make_dataset(name, seed=0, scale=scale)
    kb = ds.kb
    facts = [f for ind in kb.predicates() for f in kb.facts_for(ind)]
    lines = [_render(f) for f in facts] + ["+"] + [_render(e) for e in ds.pos]
    lines += ["-"] + [_render(e) for e in ds.neg]
    return {"n_facts": kb.n_facts, "version": kb.version, "sha256": _sha(lines)}


def variant_key_record(case: str, monkeypatch) -> dict:
    name = case.split("/")[0]
    kw = json.loads((DATA / "golden_runs.json").read_text())["datasets"][name]
    ds = make_dataset(name, **kw)
    keys: list[str] = []
    evaluate = ExampleStore.evaluate

    def recording(self, engine, rule, *args, **kwargs):
        keys.append(rule.variant_key())
        return evaluate(self, engine, rule, *args, **kwargs)

    monkeypatch.setattr(ExampleStore, "evaluate", recording)
    try:
        mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)
    finally:
        monkeypatch.undo()
    return {"count": len(keys), "sha256": _sha(keys)}


@pytest.fixture(scope="module")
def witness() -> dict:
    return json.loads((DATA / "search_witness.json").read_text())


def test_witness_covers_every_generator_and_mdie_case(witness):
    assert sorted(witness["datasets"]) == sorted(f"{n}/{s}" for n in GENERATORS for s in SCALES)
    assert sorted(witness["variant_keys"]) == sorted(MDIE_CASES + RETIRED_CASES)


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("scale", SCALES)
def test_generated_facts_match_witness(witness, name, scale):
    assert dataset_record(name, scale) == witness["datasets"][f"{name}/{scale}"]


@pytest.mark.parametrize("case", MDIE_CASES)
def test_evaluated_variant_keys_match_witness(witness, case, monkeypatch):
    assert variant_key_record(case, monkeypatch) == witness["variant_keys"][case]


def _write(out) -> None:
    mp = pytest.MonkeyPatch()
    retired = json.loads((DATA / "search_witness.json").read_text())["variant_keys"]
    doc = {
        "datasets": {f"{n}/{s}": dataset_record(n, s) for n in GENERATORS for s in SCALES},
        "variant_keys": {
            **{case: variant_key_record(case, mp) for case in MDIE_CASES},
            **{case: retired[case] for case in RETIRED_CASES},
        },
    }
    json.dump(doc, out, indent=1, sort_keys=True)
    out.write("\n")


if __name__ == "__main__":
    _write(sys.stdout)
