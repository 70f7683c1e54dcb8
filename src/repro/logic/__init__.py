"""First-order logic substrate: terms, clauses, parsing, unification and
a resource-bounded SLD-resolution engine.

This subpackage is a from-scratch replacement for the Prolog substrate
(YAP) that the paper's April ILP system ran on.
"""

from repro.logic.clause import Clause, Theory
from repro.logic.engine import Engine, QueryBudget
from repro.logic.io import (
    clause_to_prolog,
    kb_to_prolog,
    save_problem,
    theory_to_prolog,
)
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import ParseError, parse_clause, parse_program, parse_term
from repro.logic.terms import Const, Struct, Term, Var, atom, fresh_var, is_ground, mk_term
from repro.logic.unify import match, rename_apart, resolve, unify

__all__ = [
    "Clause",
    "Theory",
    "Engine",
    "QueryBudget",
    "KnowledgeBase",
    "clause_to_prolog",
    "kb_to_prolog",
    "save_problem",
    "theory_to_prolog",
    "ParseError",
    "parse_clause",
    "parse_program",
    "parse_term",
    "Const",
    "Struct",
    "Term",
    "Var",
    "atom",
    "fresh_var",
    "is_ground",
    "mk_term",
    "match",
    "rename_apart",
    "resolve",
    "unify",
]
