"""MDIE ILP engine: mode bias, bottom clauses, rule search, covering loop.

Implements the paper's sequential algorithm (Figs. 1-2) from scratch; the
parallel algorithm in :mod:`repro.parallel` reuses this package's search
(`learn_rule`) and evaluation machinery unchanged, so measured differences
between the two are attributable to the algorithm, not the implementation.

Each name below is imported from its submodule when it is first read, so
``from repro.ilp import accuracy`` loads the coverage code a query runs
and not the learner (see :mod:`repro.util.lazy`).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    ".bottom": ("BottomClause", "BottomLiteral", "SaturationError", "build_bottom"),
    ".config": ("ILPConfig", "NO_LIMIT"),
    ".coverage": ("CoverageStats", "coverage_bitset", "covers", "popcount"),
    ".heuristics": ("is_good", "score_rule"),
    ".mdie": ("MDIEResult", "mdie"),
    ".modes": ("ArgSpec", "ModeDecl", "ModeSet", "parse_mode"),
    ".refinement": ("SearchRule", "refinements", "start_rule"),
    ".search": ("EvaluatedRule", "SearchResult", "learn_rule"),
    ".store": ("ExampleStore",),
    ".theory": ("TheoryReport", "accuracy", "confusion", "predicts"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
