"""Pipeline activity trace — a text reproduction of the paper's Figs. 3-4.

Figures 3 and 4 illustrate the pipelined search: p concurrent searches,
each visiting every worker once, stages passing "good" rules onward, the
master collecting the final rule sets.  From a traced run
(``record_trace=True``) we render the equivalent as a Gantt-style text
chart: one row per rank, time binned into columns, each busy bin showing
the stage being executed (``1``..``9`` then ``A``..``Z`` for
``search(sK)``, ``s`` for saturation, ``e`` for evaluation, ``m`` for
mark_covered, ``.`` idle).  Search stages use digits for 1-9 and
uppercase letters for 10-35 (``+`` beyond that) so every stage keeps a
distinct cell at p >= 10; lowercase letters stay reserved for the named
pipeline phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.span import Span

__all__ = ["render_gantt", "occupancy", "stage_summary"]

_LABEL_CHARS = {
    "load": "l",
    "saturate": "s",
    "evaluate": "e",
    "mark_covered": "m",
    "aggregate": "a",
    "compute": "c",
    "gather": "g",
    "recover": "r",
    "local_mdie": "w",
}


def _char_for(label: str) -> str:
    if label.startswith("search(s") and label.endswith(")"):
        try:
            k = int(label[len("search(s") : -1])
        except ValueError:
            return "c"
        if 1 <= k <= 9:
            return str(k)
        if 10 <= k <= 35:  # base-36 digit, uppercased to dodge stage-name chars
            return chr(ord("A") + k - 10)
        return "+"
    return _LABEL_CHARS.get(label, "c")


def render_gantt(trace: Sequence[Span], width: int = 100, t_end: float | None = None) -> str:
    """Render busy intervals as one text row per rank.

    >>> from repro.obs import Span
    >>> trace = [Span(1, "search(s1)", 0.0, 0.5), Span(1, "evaluate", 0.5, 1.0)]
    >>> print(render_gantt(trace, width=10))
    rank 1 |11111eeeee|
    """
    if not trace:
        return "(empty trace)"
    end = t_end if t_end is not None else max(s.end for s in trace)
    if end <= 0:
        return "(zero-length trace)"
    ranks = sorted({s.rank for s in trace})
    rows = []
    for rank in ranks:
        cells = ["."] * width
        for s in trace:
            if s.rank != rank:
                continue
            lo = int(s.start / end * width)
            hi = max(lo + 1, int(s.end / end * width))
            ch = _char_for(s.name)
            for i in range(lo, min(hi, width)):
                cells[i] = ch
        rows.append(f"rank {rank} |{''.join(cells)}|")
    return "\n".join(rows)


def occupancy(trace: Sequence[Span], makespan: float) -> dict[int, float]:
    """Busy fraction per rank — the pipeline's load-balance measure.

    The paper argues stage granularity is "very similar, leading to
    balanced computations"; this quantifies that claim for a run.
    """
    if makespan <= 0:
        raise ValueError("makespan must be positive")
    busy: dict[int, float] = {}
    for s in trace:
        busy[s.rank] = busy.get(s.rank, 0.0) + s.duration
    return {rank: b / makespan for rank, b in sorted(busy.items())}


@dataclass(frozen=True)
class StageStat:
    label: str
    count: int
    total_seconds: float


def stage_summary(trace: Sequence[Span]) -> list[StageStat]:
    """Aggregate busy time per stage name (search stages, evaluate, ...)."""
    agg: dict[str, list[float]] = {}
    for s in trace:
        agg.setdefault(s.name, []).append(s.duration)
    return [
        StageStat(label=k, count=len(v), total_seconds=sum(v))
        for k, v in sorted(agg.items())
    ]
