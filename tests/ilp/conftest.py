"""Shared ILP test fixtures: the family (daughter/2) problem."""

import pytest

from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term


@pytest.fixture
def family_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_program(
        """
        parent(ann, mary). parent(ann, tom). parent(tom, eve). parent(tom, ian).
        parent(sue, bob). parent(bob, joan). parent(eve, kim). parent(mary, liz).
        female(ann). female(mary). female(eve). female(sue). female(joan).
        female(kim). female(liz).
        male(tom). male(ian). male(bob).
        """
    )
    return kb


@pytest.fixture
def family_pos():
    return [
        parse_term(s)
        for s in (
            "daughter(mary, ann)",
            "daughter(eve, tom)",
            "daughter(joan, bob)",
            "daughter(kim, eve)",
            "daughter(liz, mary)",
        )
    ]


@pytest.fixture
def family_neg():
    return [
        parse_term(s)
        for s in (
            "daughter(tom, ann)",
            "daughter(ian, tom)",
            "daughter(eve, ann)",
            "daughter(ann, mary)",
            "daughter(bob, sue)",
        )
    ]


@pytest.fixture
def family_modes() -> ModeSet:
    return ModeSet(
        [
            "modeh(1, daughter(+person, +person))",
            "modeb(*, parent(+person, -person))",
            "modeb(*, parent(-person, +person))",
            "modeb(1, female(+person))",
            "modeb(1, male(+person))",
        ]
    )


@pytest.fixture
def family_config() -> ILPConfig:
    return ILPConfig(min_pos=1, noise=0, max_clause_length=3, var_depth=2, max_nodes=500)


@pytest.fixture
def family_engine(family_kb, family_config) -> Engine:
    return Engine(family_kb, family_config.engine_budget())
