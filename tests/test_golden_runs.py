"""One learner, checked against a witness instead of a second implementation.

Until commit f2ff849 five always-on optimisations each kept an off-switch
so the "reference path" could be re-run: coverage inheritance,
variant-keyed evaluation caches and rule bags, the saturation cache, the
wire codec and term interning.  The switches are gone; what the reference
paths computed is frozen in ``tests/data/golden_runs.json``, written at
that commit by

    git checkout f2ff849 && PYTHONPATH=src python write_golden_runs.py > golden_runs.json

(``write_golden_runs.py`` is reproduced verbatim in ``docs/golden-runs.md``;
it runs the matrix below once with all five switches off for ``runs`` and
once with the defaults for ``pins``, and refuses to write if the two
disagree on ``runs``.)

* ``runs``: theory, epochs, uncovered positives and the per-epoch log of
  trains / krki / carcinogenesis x {bfs, best_first, beam} x {mdie,
  p2mdie p=2, p2mdie p=3, coverage_parallel, independent}.  Today's
  learner must reproduce every ``bfs`` one exactly; the cases of the two
  strategies ``ILPConfig.v4`` retired stay in the file, unread.
* ``pins``: the sequential engine-op total, and the CommStats message
  and byte totals plus virtual makespan of each parallel run, on that
  commit's default path — which is the only path now, so they must not
  move either.  A change that moves a pin on purpose regenerates ``pins``
  and says why; ``runs`` cannot be regenerated, only extended.
"""

import itertools

import pytest

DATASETS = ("trains", "krki", "carcinogenesis")
STRATEGIES = ("bfs",)
RETIRED_STRATEGIES = ("best_first", "beam")
ALGOS = ("mdie", "p2mdie2", "p2mdie3", "coverage_parallel", "independent")
CASES = ["/".join(case) for case in itertools.product(DATASETS, STRATEGIES, ALGOS)]
RETIRED_CASES = ["/".join(case) for case in itertools.product(DATASETS, RETIRED_STRATEGIES, ALGOS)]


def test_golden_file_is_the_parent_commit_matrix(golden_runs):
    assert golden_runs.provenance["commit"].startswith("f2ff849")
    assert sorted(golden_runs.runs) == sorted(CASES + RETIRED_CASES) == sorted(golden_runs.pins)


@pytest.mark.parametrize("key", CASES)
def test_learns_what_the_reference_paths_learned(golden_runs, key):
    record, _ = golden_runs.run(key)
    assert record == golden_runs.runs[key]


@pytest.mark.parametrize("key", CASES)
def test_costs_what_the_parent_default_path_cost(golden_runs, key):
    _, pins = golden_runs.run(key)
    assert pins == golden_runs.pins[key]
