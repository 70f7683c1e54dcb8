"""Rule quality and the "good rule" acceptance test.

The paper's April configuration "evaluates rules using a heuristic that
relies on the number of positive and negative examples" and orders the
rule bag "based on their global coverage": P − N.
"""

from __future__ import annotations

from repro.ilp.config import ILPConfig

__all__ = ["score_rule", "is_good"]


def score_rule(pos: int, neg: int) -> float:
    """P − N: the paper's global-coverage score (higher = better)."""
    return float(pos - neg)


def is_good(pos: int, neg: int, config: ILPConfig) -> bool:
    """The paper's ``is_good``: consistent (noise-bounded negative cover)
    and sufficiently complete (minimum positive cover)."""
    return pos >= config.min_pos and neg <= config.noise
