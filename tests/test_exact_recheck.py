"""Every accepted clause survives an exact recheck by a fresh engine.

Learning has one evaluation path: every candidate is scored exactly, with
coverage inheritance, variant-keyed caches and rule bags in between.  This
suite checks the end product of that path without any of them: it replays
the covering loop of a finished run with plain per-example proofs
(:func:`~repro.ilp.coverage.coverage_bitset` on an engine that has seen
nothing) and demands that

* each accepted clause is good (``is_good``) on the positives still
  uncovered when it was accepted and on all the negatives;
* each epoch's logged ``pos_covered`` equals what the replay removes;
* the positives left at the end are exactly the run's ``uncovered``;
* the query tier's :func:`~repro.ilp.coverage.theory_covered_bits`
  covers exactly the positives the replay removed.

Over every dataset, sequential ``mdie`` and ``p2mdie`` at p = 2 and 3 on
the simulator, two seeds each.
"""

import functools

import pytest

from repro.datasets import DATASETS, make_dataset
from repro.ilp.coverage import coverage_bitset, popcount, theory_covered_bits
from repro.ilp.heuristics import is_good
from repro.ilp.mdie import mdie
from repro.parallel import run_p2mdie

ALGOS = ("mdie", "p2mdie2", "p2mdie3")


@functools.lru_cache(maxsize=None)
def _dataset(name):
    return make_dataset(name, seed=0, scale="small")


def _learn(ds, algo, seed):
    """``(groups, logged, uncovered)``: the clauses accepted per epoch, the
    positives each epoch logged as covered, and the positives left."""
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    if algo == "mdie":
        res = mdie(*args, seed=seed)
        groups = [[rule] if rule is not None else [] for _, rule, _, _ in res.log]
        return groups, [covered for _, _, covered, _ in res.log], res.uncovered
    res = run_p2mdie(*args, p=int(algo[-1]), seed=seed)
    groups = [list(log.accepted) for log in res.epoch_logs]
    return groups, [log.pos_covered for log in res.epoch_logs], res.uncovered


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_accepted_clauses_survive_an_exact_recheck(name, algo, seed):
    ds = _dataset(name)
    groups, logged, uncovered = _learn(ds, algo, seed)
    assert any(groups), "the run accepted nothing: the recheck would be vacuous"

    engine = ds.config.make_engine(ds.kb)
    everyone = (1 << len(ds.pos)) - 1
    alive = everyone
    replayed = []
    for group in groups:
        removed = 0
        for rule in group:
            pos_bits = coverage_bitset(engine, rule, ds.pos)
            neg = popcount(coverage_bitset(engine, rule, ds.neg))
            covered = popcount(pos_bits & alive)
            assert is_good(covered, neg, ds.config), (str(rule), covered, neg)
            removed += covered
            alive &= ~pos_bits
        replayed.append(removed)
    assert replayed == logged
    assert popcount(alive) == uncovered
    theory = [rule for group in groups for rule in group]
    assert theory_covered_bits(engine, theory, ds.pos) == everyone & ~alive
