#!/usr/bin/env python
"""Background knowledge defined by rules — a recursive predicate and a
builtin — and a target learned over it, sequentially and with P²-MDIE on
both backends.

The bundled datasets give their background as ground facts, which the
learner evaluates as compiled joins.  Here ``ancestor/2`` is recursive
over ``parent/2`` and ``sibling/2`` uses the builtin ``\\==``, so saturation
and coverage run on the SLD machine, with its ground-goal memo table.
The target is ``kin(A, B)``: B descends from A.

Run:  python examples/recursive_background.py
"""

from repro.ilp import ILPConfig, ModeSet, accuracy, mdie
from repro.logic import Engine, KnowledgeBase, parse_term
from repro.parallel import run_p2mdie

FAMILY = """
parent(ann, bob).  parent(ann, cee).  parent(bob, dan).  parent(bob, eve).
parent(cee, fay).  parent(dan, gus).  parent(eve, hal).  parent(fay, ivy).
parent(gus, jan).  parent(hal, kim).

ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
sibling(X, Y) :- parent(Z, X), parent(Z, Y), X \\== Y.
"""

POS = (
    "kin(ann, bob)", "kin(ann, dan)", "kin(ann, gus)", "kin(ann, jan)", "kin(ann, ivy)",
    "kin(bob, eve)", "kin(bob, hal)", "kin(bob, kim)", "kin(cee, ivy)", "kin(dan, jan)",
    "kin(eve, kim)", "kin(gus, jan)",
)
NEG = (
    "kin(bob, ann)", "kin(dan, eve)", "kin(jan, ann)", "kin(cee, bob)", "kin(fay, hal)",
    "kin(kim, eve)", "kin(ivy, cee)", "kin(gus, hal)", "kin(hal, dan)", "kin(bob, cee)",
)


def build_problem():
    kb = KnowledgeBase()
    kb.add_program(FAMILY)
    pos = [parse_term(s) for s in POS]
    neg = [parse_term(s) for s in NEG]
    modes = ModeSet(
        [
            "modeh(1, kin(+person, +person))",
            "modeb(*, ancestor(+person, -person))",
            "modeb(*, parent(+person, -person))",
            "modeb(*, sibling(+person, -person))",
        ]
    )
    config = ILPConfig(max_clause_length=3, var_depth=2, noise=0, min_pos=2, max_nodes=300)
    return kb, pos, neg, modes, config


def main() -> None:
    kb, pos, neg, modes, config = build_problem()
    engine = Engine(kb, config.engine_budget())
    runs = [("mdie", mdie(kb, pos, neg, modes, config, seed=0))]
    for backend in ("sim", "local"):
        runs.append((f"p2-mdie p=2 {backend}",
                     run_p2mdie(kb, pos, neg, modes, config, p=2, seed=0, backend=backend)))
    for name, res in runs:
        print(f"{name} theory:")
        for clause in res.theory:
            print(f"  {clause}")
        print(f"  training accuracy: {accuracy(engine, res.theory, pos, neg):.1f}%")
    print(f"memo hits={engine.memo_hits} misses={engine.memo_misses}")


if __name__ == "__main__":
    main()
