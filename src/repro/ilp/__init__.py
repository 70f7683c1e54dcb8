"""MDIE ILP engine: mode bias, bottom clauses, rule search, covering loop.

Implements the paper's sequential algorithm (Figs. 1-2) from scratch; the
parallel algorithm in :mod:`repro.parallel` reuses this package's search
(`learn_rule`) and evaluation machinery unchanged, so measured differences
between the two are attributable to the algorithm, not the implementation.
"""

from repro.ilp.bottom import BottomClause, BottomLiteral, SaturationError, build_bottom
from repro.ilp.config import ILPConfig, NO_LIMIT
from repro.ilp.coverage import CoverageStats, coverage_bitset, covers, popcount
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.mdie import MDIEResult, mdie
from repro.ilp.modes import ArgSpec, ModeDecl, ModeSet, parse_mode
from repro.ilp.refinement import SearchRule, refinements, start_rule
from repro.ilp.search import EvaluatedRule, SearchResult, learn_rule
from repro.ilp.store import ExampleStore
from repro.ilp.theory import TheoryReport, accuracy, confusion, predicts

__all__ = [
    "BottomClause",
    "BottomLiteral",
    "SaturationError",
    "build_bottom",
    "ILPConfig",
    "NO_LIMIT",
    "CoverageStats",
    "coverage_bitset",
    "covers",
    "popcount",
    "is_good",
    "score_rule",
    "MDIEResult",
    "mdie",
    "ArgSpec",
    "ModeDecl",
    "ModeSet",
    "parse_mode",
    "SearchRule",
    "refinements",
    "start_rule",
    "EvaluatedRule",
    "SearchResult",
    "learn_rule",
    "ExampleStore",
    "TheoryReport",
    "accuracy",
    "confusion",
    "predicts",
]
