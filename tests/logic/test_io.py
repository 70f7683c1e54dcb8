"""Round-trip tests for Prolog-text serialization: what the writers emit,
:func:`repro.logic.parser.parse_program` reads back."""

from repro.logic.clause import Theory
from repro.logic.io import (
    clause_to_prolog,
    examples_to_prolog,
    kb_to_prolog,
    save_problem,
    theory_to_prolog,
)
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_clause, parse_program, parse_term, term_to_str


def read_problem(directory):
    """The files :func:`save_problem` wrote, parsed: (kb, pos, neg, mode strings)."""
    kb = KnowledgeBase()
    kb.add_program((directory / "bk.pl").read_text())
    pos, neg = ([c.head for c in parse_program((directory / f).read_text())]
                for f in ("pos.f", "neg.n"))
    modes = [term_to_str(c.head) for c in parse_program((directory / "modes.pl").read_text())]
    return kb, pos, neg, modes


class TestClauseRoundtrip:
    def test_fact(self):
        c = parse_clause("p(a, 3).")
        assert parse_program(clause_to_prolog(c)) == [c]

    def test_rule(self):
        c = parse_clause("p(X) :- q(X, Y), r(Y).")
        assert parse_program(clause_to_prolog(c)) == [c]

    def test_negative_numbers(self):
        c = parse_clause("w(e1, -2.5).")
        assert parse_program(clause_to_prolog(c)) == [c]


class TestTheoryRoundtrip:
    def test_with_header(self):
        th = Theory([parse_clause("p(X) :- q(X)."), parse_clause("p(a).")])
        text = theory_to_prolog(th, header="learned\ntheory")
        assert text.startswith("% learned")
        assert parse_program(text) == list(th)


class TestKbRoundtrip:
    def test_facts_and_rules(self):
        kb = KnowledgeBase()
        kb.add_program("p(a). p(b). bond(m, a1, a2, 7). q(X) :- p(X).")
        text = kb_to_prolog(kb)
        kb2 = KnowledgeBase()
        for c in parse_program(text):
            kb2.add_clause(c)
        assert kb_to_prolog(kb2) == text
        assert {str(f) for f in kb2.facts_for(("p", 1))} == {"p(a)", "p(b)"}


class TestExamples:
    def test_roundtrip(self):
        ex = [parse_term("active(m1)"), parse_term("active(m2)")]
        assert [c.head for c in parse_program(examples_to_prolog(ex))] == ex


class TestProblemFiles:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.ilp.modes import ModeSet

        kb = KnowledgeBase()
        kb.add_program("parent(a, b). parent(b, c). female(a).")
        pos = [parse_term("gp(a, c)")]
        neg = [parse_term("gp(c, a)")]
        modes = ModeSet(["modeh(1, gp(+p, +p))", "modeb(*, parent(+p, -p))"])
        save_problem(tmp_path / "prob", kb, pos, neg, modes=list(modes))

        kb2, pos2, neg2, mode_strs = read_problem(tmp_path / "prob")
        assert kb_to_prolog(kb2) == kb_to_prolog(kb)
        assert pos2 == pos and neg2 == neg
        ms2 = ModeSet(mode_strs)
        assert list(map(str, ms2)) == list(map(str, modes))
        ms2.validate()

    def test_dataset_export_learnable(self, tmp_path):
        """A bundled dataset survives the file round-trip and stays
        learnable."""
        from repro.datasets import make_dataset
        from repro.ilp import ModeSet, mdie

        ds = make_dataset("trains", seed=1, scale="small", n_trains=12)
        save_problem(tmp_path / "t", ds.kb, ds.pos, ds.neg, modes=list(ds.modes))
        kb2, pos2, neg2, mode_strs = read_problem(tmp_path / "t")
        res = mdie(kb2, pos2, neg2, ModeSet(mode_strs), ds.config, seed=1)
        assert len(res.theory) >= 1
