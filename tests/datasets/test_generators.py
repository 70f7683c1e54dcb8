"""Tests for the synthetic dataset generators (Table 1 substitutes)."""

import pytest

from repro.datasets import DATASETS, make_dataset
from repro.experiments.tables import table1_datasets
from repro.ilp.bottom import build_bottom
from repro.logic.engine import Engine
from repro.logic.io import kb_to_prolog

ALL = ("trains", "carcinogenesis", "mesh", "pyrimidines")
PAPER_SIZES = {
    "carcinogenesis": (162, 136),
    "mesh": (2840, 278),
    "pyrimidines": (848, 764),
}


class TestRegistry:
    def test_all_registered(self):
        assert set(ALL) <= set(DATASETS)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_dataset("nope")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            make_dataset("trains", scale="huge")


@pytest.mark.parametrize("name", ALL)
class TestSmallScale:
    def test_nonempty_and_consistent(self, name):
        ds = make_dataset(name, seed=3, scale="small")
        assert ds.n_pos > 0 and ds.n_neg > 0
        assert ds.kb.n_facts > 0
        assert all(e.functor == ds.pos[0].functor for e in ds.pos + ds.neg)

    def test_deterministic(self, name):
        a = make_dataset(name, seed=11, scale="small")
        b = make_dataset(name, seed=11, scale="small")
        assert [str(e) for e in a.pos] == [str(e) for e in b.pos]
        assert kb_to_prolog(a.kb) == kb_to_prolog(b.kb)

    def test_seed_changes_data(self, name):
        a = make_dataset(name, seed=1, scale="small")
        b = make_dataset(name, seed=2, scale="small")
        # the generated relational structure differs across seeds
        facts_a = {str(f) for ind in a.kb.predicates() for f in a.kb.facts_for(ind)}
        facts_b = {str(f) for ind in b.kb.predicates() for f in b.kb.facts_for(ind)}
        assert facts_a != facts_b

    def test_modes_validate(self, name):
        make_dataset(name, seed=3, scale="small").modes.validate()

    def test_examples_disjoint(self, name):
        ds = make_dataset(name, seed=3, scale="small")
        assert not set(map(str, ds.pos)) & set(map(str, ds.neg))

    def test_every_positive_saturates(self, name):
        ds = make_dataset(name, seed=3, scale="small")
        eng = Engine(ds.kb, ds.config.engine_budget())
        for e in ds.pos[:5]:
            b = build_bottom(e, eng, ds.modes, ds.config)
            assert len(b.literals) > 0

    def test_table1_row(self, name):
        ds = make_dataset(name, seed=3, scale="small")
        row = table1_datasets([ds]).splitlines()[-1]
        assert row.split() == [name, f"{ds.n_pos:,}", f"{ds.n_neg:,}"]


@pytest.mark.parametrize("name", sorted(PAPER_SIZES))
def test_paper_scale_cardinalities(name):
    """Paper scale must match Table 1 exactly."""
    ds = make_dataset(name, seed=0, scale="paper")
    assert (ds.n_pos, ds.n_neg) == PAPER_SIZES[name]


class TestTrainsSpecifics:
    def test_target_learnable_structure(self):
        ds = make_dataset("trains", seed=3, scale="small")
        # an eastbound train must exist with a short closed car
        eng = Engine(ds.kb, ds.config.engine_budget())
        from repro.logic.parser import parse_term

        t = ds.pos[0].args[0]
        assert eng.prove(parse_term(f"has_car({t}, C), short(C), closed(C)"))

    def test_custom_n_trains(self):
        ds = make_dataset("trains", seed=3, n_trains=10)
        assert ds.n_pos + ds.n_neg == 10


class TestCarcinogenesisSpecifics:
    def test_bonds_symmetric(self):
        ds = make_dataset("carcinogenesis", seed=3, scale="small")
        store = ds.kb.facts_for(("bond", 3))
        facts = set(map(str, store))
        for f in store:
            a, b, t = f.args
            from repro.logic.terms import Struct

            assert str(Struct("bond", (b, a, t))) in facts

    def test_custom_quotas(self):
        ds = make_dataset("carcinogenesis", seed=3, n_pos=10, n_neg=8)
        assert (ds.n_pos, ds.n_neg) == (10, 8)

    @pytest.mark.parametrize(
        "scale,n_facts,digest",
        [
            ("small", 4014, "976fa67d4b0a0117af2f49b18bf492c7da6915f2f5fff26359233dfc7f91c753"),
            ("paper", 11457, "c0a4c735e587f5dbe8a497b75c00251ef25b79fe643a5b297ff77a64de4aa704"),
        ],
    )
    def test_terms_are_built_for_kept_molecules_only(self, scale, n_facts, digest, monkeypatch):
        """The generator draws every molecule but builds fact rows only for
        the ones the quota keeps; facts and examples are, term for term,
        what it produced when it built them all (digests taken at 812822d)."""
        import hashlib

        from repro.logic.knowledge import KnowledgeBase

        rows_added = []
        add_facts = KnowledgeBase.add_facts

        def counting_add_facts(self, functor, rows):
            rows = list(rows)
            rows_added.extend((functor, row) for row in rows)
            return add_facts(self, functor, rows)

        monkeypatch.setattr(KnowledgeBase, "add_facts", counting_add_facts)
        ds = make_dataset("carcinogenesis", seed=0, scale=scale)
        facts = [str(f) for ind in ds.kb.predicates() for f in ds.kb.facts_for(ind)]
        text = "\n".join(facts + [str(e) for e in ds.pos] + ["-"] + [str(e) for e in ds.neg])
        assert len(facts) == n_facts
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # A discarded molecule's name goes to the next one drawn, so building
        # its rows would hand the same atom_of row over a second time.
        atom_of = [row for functor, row in rows_added if functor == "atom_of"]
        assert len(atom_of) == len(set(atom_of)) == len(ds.kb.facts_for(("atom_of", 2)))


class TestMeshSpecifics:
    def test_neg_classes_differ_from_pos(self):
        ds = make_dataset("mesh", seed=3, scale="small")
        true_class = {str(e.args[0]): e.args[1] for e in ds.pos}
        for e in ds.neg:
            edge, cls = str(e.args[0]), e.args[1]
            if edge in true_class:
                assert cls != true_class[edge]

    def test_neighbor_symmetric(self):
        ds = make_dataset("mesh", seed=3, scale="small")
        facts = set(map(str, ds.kb.facts_for(("neighbor", 2))))
        from repro.logic.terms import Struct

        for f in ds.kb.facts_for(("neighbor", 2)):
            a, b = f.args
            assert str(Struct("neighbor", (b, a))) in facts


class TestPyrimidinesSpecifics:
    def test_ranking_antisymmetric(self):
        ds = make_dataset("pyrimidines", seed=3, scale="small")
        pos = set(map(str, ds.pos))
        from repro.logic.terms import Struct

        for e in ds.pos:
            a, b = e.args
            assert str(Struct("great", (b, a))) not in pos

    def test_comparative_relations_irreflexive(self):
        ds = make_dataset("pyrimidines", seed=3, scale="small")
        for f in ds.kb.facts_for(("polar_gt", 2)):
            assert f.args[0] != f.args[1]
