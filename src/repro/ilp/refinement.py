"""Top-down refinement operator over a bottom clause.

Following Progol's δ operator, the hypothesis space for one seed example is
the set of *subsequences* of the bottom clause's body.  A search node is a
:class:`SearchRule`: the clause so far plus the bottom-body index of the
last literal added.  Refining appends a later literal whose input variables
are already in scope (head variables or outputs of earlier body literals),
so every generated clause is *connected* and executable left-to-right.

Every search rule is therefore ⊥e's head plus an increasing subsequence of
⊥e's literals, and its lattice parent is the rule minus its last literal —
lineage that no field needs to carry (the store finds the parent's entry
by its key's prefix).  Partially refined rules can be shipped to another
worker holding the same bottom clause as their positions in it, and
refined *further there* — exactly what the paper's pipeline stages do with
``learn_rule'(⊥e, step+1, w, Good)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.ilp.bottom import BottomClause
from repro.ilp.config import ILPConfig
from repro.logic.clause import Clause
from repro.logic.terms import variables_of

__all__ = ["SearchRule", "refinements", "start_rule", "rule_vars_in_scope"]


@dataclass(frozen=True)
class SearchRule:
    """A clause plus its position in the bottom-clause subsequence order.

    ``last_index`` is the bottom-body index of the clause's last literal
    (-1 for the bare head).  Refinements only consider strictly larger
    indices, so each subsequence is generated exactly once.

    ``parent_scope`` is the parent's :func:`rule_vars_in_scope`, carried
    by :func:`refinements` so a child's scope costs one union instead of
    a walk over its body.  It is derivable, so it takes no part in
    equality and is neither pickled nor put on the wire: a rule rebuilt
    from either walks its body once.
    """

    clause: Clause
    last_index: int = -1
    parent_scope: Optional[frozenset] = field(default=None, compare=False, repr=False)

    def __reduce__(self):
        return (SearchRule, (self.clause, self.last_index))

    def __len__(self) -> int:
        return len(self.clause.body)

    def __str__(self) -> str:
        return f"{self.clause} /{self.last_index}"


def start_rule(bottom: BottomClause) -> SearchRule:
    """The most general rule: bare head (the paper's START_RULE)."""
    return SearchRule(bottom.most_general_rule(), -1)


def rule_vars_in_scope(rule: SearchRule, bottom: BottomClause) -> frozenset:
    """Variables usable as inputs by the next literal: the head's, plus
    every variable of the body.

    A refined rule's scope is its parent's plus the outputs of the bottom
    literal it appended (that literal's inputs were already in scope, and
    a bottom literal's variables are its inputs and outputs).
    """
    if rule.parent_scope is not None:
        return rule.parent_scope | bottom.literals[rule.last_index].output_vars
    scope = set(bottom.head_vars)
    for lit in rule.clause.body:
        scope.update(variables_of(lit))
    return frozenset(scope)


def refinements(rule: SearchRule, bottom: BottomClause, config: ILPConfig) -> Iterator[SearchRule]:
    """One-literal refinements of ``rule`` w.r.t. ``bottom``.

    Yields children in bottom-body order (deterministic).  No children are
    produced once the clause has ``max_clause_length`` body literals.
    """
    if len(rule.clause.body) >= config.max_clause_length:
        return
    scope = rule_vars_in_scope(rule, bottom)
    clause = rule.clause
    for j in range(rule.last_index + 1, len(bottom.literals)):
        bl = bottom.literals[j]
        if bl.input_vars <= scope:
            yield SearchRule(clause.with_extra_literal(bl.literal), j, scope)
