"""Golden parity: the SLD machine (ground-goal memo, multi-argument
indexing) must learn **bit-identical** theories and coverage bitsets to
what the seed kernel (recursive interpreter, first-argument index)
computed on every dataset.

The seed kernel's answers are rows of ``tests/data/engine_witness.json``
(``RUNS`` and the ``*_cases`` functions below are its cases).
"""

import dataclasses

import pytest

from repro.datasets import make_dataset
from repro.ilp.coverage import coverage_eval, popcount
from repro.ilp.mdie import mdie
from repro.ilp.store import ExampleStore
from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term

DATASETS = [
    ("trains", dict(seed=0, scale="small")),
    ("krki", dict(seed=0, n_pos=40, n_neg=40)),
    ("carcinogenesis", dict(seed=0, n_pos=24, n_neg=20)),
]
STRATEGIES = ["bfs"]
RETIRED_STRATEGIES = ["best_first", "beam"]
KRKI_30 = dict(seed=0, n_pos=30, n_neg=30)
TRAINS = dict(seed=0, scale="small")

#: The learner runs the witness records: key -> (algorithm, dataset,
#: dataset kwargs, config changes, seed).  The witness's two
#: ``mdie/*/reorder`` rows (body reordering, since retired) and its
#: ``mdie/*/best_first`` and ``mdie/*/beam`` rows (search strategies
#: ``ILPConfig.v4`` retired) are not read.
RUNS = {
    **{
        f"mdie/{name}/{strategy}": ("mdie", name, kw, {}, 0)
        for name, kw in DATASETS
        for strategy in STRATEGIES
    },
    **{
        f"mdie/krki/seed{seed}": ("mdie", "krki", dict(seed=seed, n_pos=30, n_neg=30), {}, seed)
        for seed in (1, 2)
    },
    "p2mdie2/krki": ("p2mdie2", "krki", KRKI_30, {}, 0),
    "p2mdie3/krki": ("p2mdie3", "krki", KRKI_30, {}, 0),
    "coverage_parallel/trains": ("coverage_parallel", "trains", TRAINS, {}, 0),
    "independent/trains": ("independent", "trains", TRAINS, {}, 0),
}


def run(key: str):
    from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

    algo, name, kw, changes, seed = RUNS[key]
    ds = make_dataset(name, **kw)
    args = (ds.kb, ds.pos, ds.neg, ds.modes, dataclasses.replace(ds.config, **changes))
    if algo == "mdie":
        return mdie(*args, seed=seed)
    if algo.startswith("p2mdie"):
        return run_p2mdie(*args, p=int(algo[-1]), seed=seed)
    if algo == "coverage_parallel":
        return run_coverage_parallel(*args, p=2, batch_size=4, seed=seed)
    return run_independent(*args, p=2, seed=seed)


def assert_run_matches(engine_witness, key: str):
    assert engine_witness.record(run(key)) == engine_witness.runs[key]


RETIRED_RUNS = {
    *(f"mdie/{name}/reorder" for name in ("trains", "krki")),
    *(f"mdie/{name}/{strategy}" for name, _ in DATASETS for strategy in RETIRED_STRATEGIES),
}


def test_unread_witness_runs_are_the_retired_options(engine_witness):
    assert set(RUNS) <= set(engine_witness.runs)
    assert set(engine_witness.runs) - set(RUNS) == RETIRED_RUNS


class TestSequentialParity:
    @pytest.mark.parametrize("name,kw", DATASETS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mdie_parity(self, name, kw, strategy, engine_witness):
        assert_run_matches(engine_witness, f"mdie/{name}/{strategy}")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mdie_parity_other_seeds(self, seed, engine_witness):
        assert_run_matches(engine_witness, f"mdie/krki/seed{seed}")


class TestPlanEligibility:
    """Every clause the learner evaluates on the shipped datasets is a flat
    clause over ground facts, so the whole run goes through coverage plans
    (``repro.logic.cover_plan``).  A change that silently drops it back onto
    the SLD machine learns the same theory several times slower: it must
    fail here, not in a benchmark."""

    @pytest.mark.parametrize("name,kw", DATASETS)
    def test_every_evaluated_clause_compiles_to_a_plan(self, name, kw, monkeypatch):
        import repro.ilp.store as store_module
        from repro.logic.cover_plan import compile_plan

        compiled = []

        def recording(engine, rule, examples, candidates=None):
            compiled.append(compile_plan(engine, rule) is not None)
            return coverage_eval(engine, rule, examples, candidates)

        monkeypatch.setattr(store_module, "coverage_eval", recording)
        ds = make_dataset(name, **kw)
        mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=0)
        assert compiled and all(compiled)


#: Per-query budget of every bitset case.
BITSET_BUDGET = QueryBudget(max_depth=8, max_ops=100_000)

KRKI_RULES = [
    "illegal(A) :- wk(A, B, C), bk(A, D, E), adj(B, D), adj(C, E).",
    "illegal(A) :- wr(A, B, C), bk(A, B, E).",
    "illegal(A) :- wr(A, B, C), bk(A, D, C).",
    "illegal(A) :- wk(A, B, C), wr(A, B, C).",
]
PROGRAM = """
e(c1, c2). e(c2, c3). e(c3, c1). e(c4, c5).
f(c3). f(c5).
size(c1, 3). size(c2, 1). size(c3, 5). size(c4, 2). size(c5, 4).
linked(X, Y) :- e(X, Y).
linked(X, Z) :- e(X, Y), linked(Y, Z).
unflagged(X) :- size(X, N), \\+ f(X).
"""
PROGRAM_RULES = [
    "t(X) :- e(X, Y), \\+ f(Y).",
    "t(X) :- e(X, Y), e(Y, Z), dif_const(X, Z).",
    "t(X) :- size(X, N), N > 2.",
    "t(X) :- size(X, N), M is N * 2, M >= 6.",
    "t(X) :- linked(X, c1).",
    "t(X) :- unflagged(X), size(X, N), N =< 3.",
    "t(X) :- \\+ linked(X, c9).",
    "t(X) :- between(1, 4, N), size(X, N).",
]
LINEAGE = [
    "eastbound(A) :- has_car(A, B).",
    "eastbound(A) :- has_car(A, B), closed(B).",
    "eastbound(A) :- has_car(A, B), closed(B), short(B).",
]


def krki_cases():
    """``(kb, [(key, rule, examples)])``: KRKI_RULES on both example lists."""
    ds = make_dataset("krki", **KRKI_30)
    sides = (("pos", ds.pos), ("neg", ds.neg))
    return ds.kb, [(f"krki/{side}/{src}", parse_clause(src), ex) for src in KRKI_RULES for side, ex in sides]


def program_cases():
    """PROGRAM_RULES — negation, arithmetic, disequality, rule-defined
    (memoizable and non-memoizable) predicates — on t(c1) .. t(c5)."""
    kb = KnowledgeBase()
    kb.add_program(PROGRAM)
    examples = [parse_term(f"t(c{i})") for i in range(1, 6)]
    return kb, [(f"program/{src}", parse_clause(src), examples) for src in PROGRAM_RULES]


def trains_cases():
    """The LINEAGE rules on both example lists of the small trains set."""
    ds = make_dataset("trains", **TRAINS)
    sides = (("pos", ds.pos), ("neg", ds.neg))
    return ds.kb, [(f"trains/{side}/{src}", parse_clause(src), ex) for src in LINEAGE for side, ex in sides]


BITSET_CASES = (krki_cases, program_cases, trains_cases)


class TestBitsetParity:
    def assert_cases_match(self, cases, engine_witness):
        kb, rows = cases()
        engine = Engine(kb, BITSET_BUDGET)
        for key, rule, examples in rows:
            assert list(coverage_eval(engine, rule, examples)) == engine_witness.bitsets[key], key

    def test_dataset_rule_bitsets(self, engine_witness):
        self.assert_cases_match(krki_cases, engine_witness)

    def test_negation_and_builtin_heavy_program(self, engine_witness):
        """Bodies with negation, arithmetic, disequality and rule-defined
        (memoizable and non-memoizable) predicates evaluate identically."""
        self.assert_cases_match(program_cases, engine_witness)

    def test_store_evaluation_parity(self, engine_witness):
        """ExampleStore (inheritance + alive restriction) reports, at every
        covering step, what mask-less full-list scans on the seed kernel
        computed."""
        self.assert_cases_match(trains_cases, engine_witness)
        ds = make_dataset("trains", **TRAINS)
        engine = Engine(ds.kb, BITSET_BUDGET)
        store = ExampleStore(ds.pos, ds.neg)
        rules = [parse_clause(src) for src in LINEAGE]
        lineage = list(zip(LINEAGE, rules, [None, *rules[:-1]]))
        for _, rule, par in lineage[1:]:
            # the store finds each rule's parent entry by its key's prefix
            assert rule.variant_key()[: rule.parent_key_length()] == par.variant_key()

        def check():
            for src, rule, par in lineage:
                pos_bits = engine_witness.bitsets[f"trains/pos/{src}"][0] & store.alive
                neg_bits = engine_witness.bitsets[f"trains/neg/{src}"][0]
                b = store.evaluate(engine, rule)
                assert (b.pos_bits, b.neg_bits) == (pos_bits, neg_bits)
                assert (b.pos, b.neg) == (popcount(pos_bits), popcount(neg_bits))

        check()
        # kill the child's cover and re-evaluate the lineage from cache
        store.kill(store.evaluate(engine, rules[1]).pos_bits)
        check()


class TestParallelParity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_p2mdie_parity(self, p, engine_witness):
        assert_run_matches(engine_witness, f"p2mdie{p}/krki")

    def test_coverage_parallel_parity(self, engine_witness):
        assert_run_matches(engine_witness, "coverage_parallel/trains")

    def test_independent_parity(self, engine_witness):
        assert_run_matches(engine_witness, "independent/trains")
