#!/usr/bin/env python
"""Build an ILP problem from scratch with the public API and learn on a
simulated cluster — the template for using this library on your own
relational data.

The task: learn `grandparent(X, Y)` from family trees.

Run:  python examples/custom_dataset.py
"""

from repro.backend import SimBackend
from repro.cluster import GIGABIT, OpsCostModel
from repro.ilp import ILPConfig, ModeSet, accuracy, mdie
from repro.logic import Engine, KnowledgeBase, parse_term
from repro.parallel import run_p2mdie, sequential_seconds


def build_problem():
    # 1. Background knowledge: plain Prolog-ish text (or atom()/add_fact).
    kb = KnowledgeBase()
    kb.add_program(
        """
        parent(ann, bob).  parent(ann, cee).  parent(bob, dan).
        parent(bob, eve).  parent(cee, fred). parent(dan, gil).
        parent(eve, hana). parent(fred, ian). parent(gil, jon).
        parent(hana, kim). parent(ian, lea).  parent(jon, mia).
        male(bob). male(dan). male(fred). male(gil). male(ian). male(jon).
        female(ann). female(cee). female(eve). female(hana). female(kim).
        female(lea). female(mia).
        """
    )

    # 2. Examples: ground atoms of the target predicate.
    pos = [
        parse_term(s)
        for s in (
            "grandparent(ann, dan)", "grandparent(ann, eve)", "grandparent(ann, fred)",
            "grandparent(bob, gil)", "grandparent(bob, hana)", "grandparent(cee, ian)",
            "grandparent(dan, jon)", "grandparent(eve, kim)", "grandparent(fred, lea)",
            "grandparent(gil, mia)",
        )
    ]
    neg = [
        parse_term(s)
        for s in (
            "grandparent(ann, bob)", "grandparent(bob, ann)", "grandparent(dan, dan)",
            "grandparent(eve, ann)", "grandparent(kim, ann)", "grandparent(jon, gil)",
            "grandparent(mia, jon)", "grandparent(cee, bob)",
        )
    ]

    # 3. Language bias: one head mode + body modes with +/-/# placemarkers.
    modes = ModeSet(
        [
            "modeh(1, grandparent(+person, +person))",
            "modeb(*, parent(+person, -person))",
            "modeb(*, parent(-person, +person))",
            "modeb(1, male(+person))",
            "modeb(1, female(+person))",
        ]
    )

    # 4. Constraints C: clause length, noise tolerance, search budget, W.
    config = ILPConfig(
        max_clause_length=3,
        var_depth=2,
        noise=0,
        min_pos=2,
        max_nodes=400,
        pipeline_width=5,
    )
    return kb, pos, neg, modes, config


def main() -> None:
    kb, pos, neg, modes, config = build_problem()

    seq = mdie(kb, pos, neg, modes, config, seed=0)
    print("sequential theory:")
    for c in seq.theory:
        print(f"  {c}")

    # A faster interconnect and a custom cost model: the simulator's
    # models are set on the sim backend the run is given.
    par = run_p2mdie(
        kb, pos, neg, modes, config,
        p=3,
        seed=0,
        backend=SimBackend(network=GIGABIT, cost_model=OpsCostModel(sec_per_op=40e-6)),
    )
    print("\np2-mdie theory (p=3, gigabit fabric):")
    for c in par.theory:
        print(f"  {c}")

    engine = Engine(kb, config.engine_budget())
    print(f"\nsequential acc: {accuracy(engine, seq.theory, pos, neg):.1f}%   "
          f"parallel acc: {accuracy(engine, par.theory, pos, neg):.1f}%")
    print(f"speedup: {sequential_seconds(seq) / par.seconds:.2f}x   "
          f"comm: {par.mbytes * 1024:.1f} KB   epochs: {par.epochs}")


if __name__ == "__main__":
    main()
