"""Statistics for the accuracy table (paper Table 6).

The paper reports per-cell mean accuracy with standard deviation and uses
"the paired t-test to detect significance ... up to a 98% confidence
level", starring cells that differ significantly from the sequential run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["mean_std", "paired_ttest", "PairedTest"]


def mean_std(xs: Sequence[float]) -> tuple[float, float]:
    """Sample mean and (n-1) standard deviation, as the paper reports."""
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    m = sum(xs) / n
    if n == 1:
        return m, 0.0
    var = sum((x - m) ** 2 for x in xs) / (n - 1)
    return m, math.sqrt(var)


@dataclass(frozen=True)
class PairedTest:
    """Result of a paired t-test between two fold-accuracy vectors."""

    t: float
    pvalue: float
    significant: bool
    improved: bool  # mean(b) > mean(a) among significant results

    @property
    def star(self) -> str:
        """The paper's '*' marker (significant difference vs sequential)."""
        return "*" if self.significant else ""


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        am = a + 2 * m
        for num in (
            m * (b - m) * x / ((am - 1.0) * am),
            -(a + m) * (a + b + m) * x / (am * (am + 1.0)),
        ):
            d = 1.0 + num * d
            c = 1.0 + num / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _t_two_sided_p(t: float, nu: int) -> float:
    """P(|T_nu| >= |t|) = I_x(nu/2, 1/2) at x = nu / (nu + t^2), the
    regularised incomplete beta function; ``1 - x`` is formed directly so
    a tiny ``t`` loses nothing to cancellation."""
    a, b = nu / 2.0, 0.5
    x, y = nu / (nu + t * t), t * t / (nu + t * t)
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def paired_ttest(a: Sequence[float], b: Sequence[float], confidence: float = 0.98) -> PairedTest:
    """Two-sided paired t-test: is ``b`` (parallel) different from ``a``
    (sequential) at the given confidence level?

    >>> r = paired_ttest([60.0, 61.0, 59.5, 60.2, 60.8],
    ...                  [70.1, 71.0, 69.8, 70.5, 70.9])
    >>> (r.significant, r.improved)
    (True, True)
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    if len(a) < 2:
        raise ValueError("need at least 2 pairs")
    diffs = [y - x for x, y in zip(a, b)]
    if all(abs(d) < 1e-12 for d in diffs):
        return PairedTest(t=0.0, pvalue=1.0, significant=False, improved=False)
    n = len(diffs)
    mean_diff, sd = mean_std(diffs)
    if sd == 0.0:  # every pair differs by the same amount
        t, p = math.copysign(math.inf, mean_diff), 0.0
    else:
        t = mean_diff / (sd / math.sqrt(n))
        p = _t_two_sided_p(t, n - 1)
    significant = p < (1.0 - confidence)
    return PairedTest(t=t, pvalue=p, significant=significant, improved=significant and mean_diff > 0)
