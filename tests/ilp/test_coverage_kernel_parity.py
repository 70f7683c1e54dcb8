"""Golden parity: the overhauled coverage kernel (iterative machine,
ground-goal memo, multi-argument indexing) must learn **bit-identical**
theories and coverage bitsets to the seed kernel (recursive interpreter,
first-argument index) on every dataset and search strategy.
"""

import pytest

from repro.datasets import make_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.coverage import coverage_eval, popcount
from repro.ilp.mdie import mdie
from repro.ilp.modes import ModeSet
from repro.ilp.store import ExampleStore
from repro.logic.engine import Engine, QueryBudget
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_term


def legacy_config(config: ILPConfig) -> ILPConfig:
    return config.replace(coverage_kernel="legacy")


def new_config(config: ILPConfig) -> ILPConfig:
    return config.replace(coverage_kernel="new")


def run_pair(ds, config: ILPConfig, seed: int = 0):
    a = mdie(ds.kb, ds.pos, ds.neg, ds.modes, legacy_config(config), seed=seed)
    b = mdie(ds.kb, ds.pos, ds.neg, ds.modes, new_config(config), seed=seed)
    return a, b


def assert_identical(a, b):
    assert sorted(str(c) for c in a.theory) == sorted(str(c) for c in b.theory)
    assert a.epochs == b.epochs
    assert a.uncovered == b.uncovered
    # per-epoch log parity: same seeds, same accepted rules, same cover
    assert [(str(s), str(r), c) for s, r, c, _ in a.log] == [
        (str(s), str(r), c) for s, r, c, _ in b.log
    ]


DATASETS = [
    ("trains", dict(seed=0, scale="small")),
    ("krki", dict(seed=0, n_pos=40, n_neg=40)),
    ("carcinogenesis", dict(seed=0, n_pos=24, n_neg=20)),
]


class TestSequentialParity:
    @pytest.mark.parametrize("name,kw", DATASETS)
    @pytest.mark.parametrize("strategy", ["bfs", "best_first", "beam"])
    def test_mdie_parity(self, name, kw, strategy):
        ds = make_dataset(name, **kw)
        config = ds.config.replace(search_strategy=strategy)
        a, b = run_pair(ds, config)
        assert_identical(a, b)

    @pytest.mark.parametrize("name,kw", DATASETS[:2])
    def test_mdie_parity_with_reorder(self, name, kw):
        ds = make_dataset(name, **kw)
        config = ds.config.replace(reorder_body=True)
        a, b = run_pair(ds, config)
        assert_identical(a, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mdie_parity_other_seeds(self, seed):
        ds = make_dataset("krki", seed=seed, n_pos=30, n_neg=30)
        a, b = run_pair(ds, ds.config, seed=seed)
        assert_identical(a, b)


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
        mdie(ds.kb, ds.pos, ds.neg, ds.modes, new_config(ds.config), seed=0)
        assert compiled and all(compiled)


class TestBitsetParity:
    def engines(self, kb):
        budget = QueryBudget(max_depth=8, max_ops=100_000)
        return Engine(kb, budget, kernel="legacy"), Engine(kb, budget, kernel="new")

    def test_dataset_rule_bitsets(self):
        ds = make_dataset("krki", seed=0, n_pos=30, n_neg=30)
        legacy, new = self.engines(ds.kb)
        rules = [
            "illegal(A) :- wk(A, B, C), bk(A, D, E), adj(B, D), adj(C, E).",
            "illegal(A) :- wr(A, B, C), bk(A, B, E).",
            "illegal(A) :- wr(A, B, C), bk(A, D, C).",
            "illegal(A) :- wk(A, B, C), wr(A, B, C).",
        ]
        for src in rules:
            rule = parse_clause(src)
            for examples in (ds.pos, ds.neg):
                lb, le = coverage_eval(legacy, rule, examples)
                nb, ne = coverage_eval(new, rule, examples)
                assert (lb, le) == (nb, ne), src

    def test_negation_and_builtin_heavy_program(self):
        """Bodies with negation, arithmetic, disequality and rule-defined
        (memoizable and non-memoizable) predicates evaluate identically."""
        kb = KnowledgeBase()
        kb.add_program(
            """
            e(c1, c2). e(c2, c3). e(c3, c1). e(c4, c5).
            f(c3). f(c5).
            size(c1, 3). size(c2, 1). size(c3, 5). size(c4, 2). size(c5, 4).
            linked(X, Y) :- e(X, Y).
            linked(X, Z) :- e(X, Y), linked(Y, Z).
            unflagged(X) :- size(X, N), \\+ f(X).
            """
        )
        examples = [parse_term(f"t(c{i})") for i in range(1, 6)]
        rules = [
            "t(X) :- e(X, Y), \\+ f(Y).",
            "t(X) :- e(X, Y), e(Y, Z), dif_const(X, Z).",
            "t(X) :- size(X, N), N > 2.",
            "t(X) :- size(X, N), M is N * 2, M >= 6.",
            "t(X) :- linked(X, c1).",
            "t(X) :- unflagged(X), size(X, N), N =< 3.",
            "t(X) :- \\+ linked(X, c9).",
            "t(X) :- between(1, 4, N), size(X, N).",
        ]
        legacy, new = self.engines(kb)
        for src in rules:
            rule = parse_clause(src)
            lb, le = coverage_eval(legacy, rule, examples)
            nb, ne = coverage_eval(new, rule, examples)
            assert (lb, le) == (nb, ne), src

    def test_store_evaluation_parity(self):
        """ExampleStore (inheritance + alive restriction) on the new kernel
        reports, at every covering step, what mask-less full-list scans on
        the legacy kernel compute."""
        ds = make_dataset("trains", seed=0, scale="small")
        legacy, new = self.engines(ds.kb)
        store = ExampleStore(ds.pos, ds.neg)
        parent = parse_clause("eastbound(A) :- has_car(A, B).")
        child = parse_clause("eastbound(A) :- has_car(A, B), closed(B).")
        grandchild = parse_clause("eastbound(A) :- has_car(A, B), closed(B), short(B).")
        lineage = [(parent, None), (child, parent), (grandchild, child)]

        def check():
            for rule, par in lineage:
                pos_bits = coverage_eval(legacy, rule, ds.pos)[0] & store.alive
                neg_bits = coverage_eval(legacy, rule, ds.neg)[0]
                b = store.evaluate(new, rule, parent=par)
                assert (b.pos_bits, b.neg_bits) == (pos_bits, neg_bits)
                assert (b.pos, b.neg) == (popcount(pos_bits), popcount(neg_bits))

        check()
        # kill the child's cover and re-evaluate the lineage from cache
        store.kill(store.evaluate(new, child).pos_bits)
        check()


class TestParallelParity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_p2mdie_parity(self, p):
        from repro.parallel.p2mdie import run_p2mdie

        ds = make_dataset("krki", seed=0, n_pos=30, n_neg=30)
        a = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, legacy_config(ds.config), p=p, seed=0)
        b = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, new_config(ds.config), p=p, seed=0)
        assert sorted(str(c) for c in a.theory) == sorted(str(c) for c in b.theory)
        assert a.epochs == b.epochs
        assert a.uncovered == b.uncovered

    def test_coverage_parallel_parity(self):
        from repro.parallel.coverage_parallel import run_coverage_parallel

        ds = make_dataset("trains", seed=0, scale="small")
        a = run_coverage_parallel(
            ds.kb, ds.pos, ds.neg, ds.modes, legacy_config(ds.config), p=2, batch_size=4, seed=0
        )
        b = run_coverage_parallel(
            ds.kb, ds.pos, ds.neg, ds.modes, new_config(ds.config), p=2, batch_size=4, seed=0
        )
        assert sorted(str(c) for c in a.theory) == sorted(str(c) for c in b.theory)
        assert a.uncovered == b.uncovered

    def test_independent_parity(self):
        from repro.parallel.independent import run_independent

        ds = make_dataset("trains", seed=0, scale="small")
        a = run_independent(ds.kb, ds.pos, ds.neg, ds.modes, legacy_config(ds.config), p=2, seed=0)
        b = run_independent(ds.kb, ds.pos, ds.neg, ds.modes, new_config(ds.config), p=2, seed=0)
        assert sorted(str(c) for c in a.theory) == sorted(str(c) for c in b.theory)
        assert a.uncovered == b.uncovered
