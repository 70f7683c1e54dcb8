"""Full evaluation report generation.

Bundles every table of the paper's §5 plus run metadata into one markdown
document — the artifact a reproduction run hands to a reviewer.  Used by
``python -m repro tables`` consumers and by the benchmark suite's output
directory.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.datasets.base import Dataset
from repro.experiments.runner import MatrixResult, width_label
from repro.experiments.stats import mean_std, paired_ttest
from repro.experiments.tables import (
    one_clock,
    table1_datasets,
    table2_speedup,
    table3_times,
    table4_communication,
    table5_epochs,
    table6_accuracy,
)

__all__ = ["ReportMeta", "render_report", "speedup_summary"]


@dataclass(frozen=True)
class ReportMeta:
    """Provenance for a report: what was run, at what scale, which seed."""

    scale: str = "small"
    seed: int = 0
    k_folds: int = 3
    notes: str = ""


def speedup_summary(result: MatrixResult, ps: Sequence[int] = (2, 4, 8)) -> list[dict]:
    """Per (dataset, width) speedup rows as structured data.

    Complements the text tables for programmatic consumers (plots,
    regression tracking).  Refuses seconds in two clocks, as Table 2 does.
    """
    one_clock(result, "speedup_summary")
    out = []
    for ds in sorted({r.dataset for r in result.records}):
        seq = result.fold_values("seconds", ds, None, 1)
        if not seq:
            continue
        widths = sorted(
            {r.width for r in result.records if r.dataset == ds and r.p > 1},
            key=lambda w: (w is not None, w or 0),
        )
        for w in widths:
            row = {"dataset": ds, "width": width_label(w)}
            for p in ps:
                par = result.fold_values("seconds", ds, w, p)
                if par and len(par) == len(seq):
                    sp = [s / q for s, q in zip(seq, par)]
                    row[f"p{p}"] = sum(sp) / len(sp)
            out.append(row)
    return out


def render_report(
    result: MatrixResult,
    datasets: Optional[Sequence[Dataset]] = None,
    meta: Optional[ReportMeta] = None,
    ps: Sequence[int] = (2, 4, 8),
    confidence: float = 0.98,
) -> str:
    """Render the complete §5 evaluation as a markdown document."""
    meta = meta or ReportMeta()
    buf = io.StringIO()
    w = buf.write
    w("# P²-MDIE evaluation report\n\n")
    w(f"- scale: `{meta.scale}`\n- seed: `{meta.seed}`\n- folds: `{meta.k_folds}`\n")
    if meta.notes:
        w(f"- notes: {meta.notes}\n")
    w("\n")
    if datasets:
        w("```\n" + table1_datasets(datasets) + "\n```\n\n")
    for renderer in (table2_speedup, table3_times, table4_communication, table5_epochs):
        w("```\n" + renderer(result, ps=ps) + "\n```\n\n")
    w("```\n" + table6_accuracy(result, ps=ps, confidence=confidence) + "\n```\n\n")

    # Evaluation-cache effectiveness (fault-tolerance observability: a
    # recovery shows up as a cache-miss spike in the affected cells).
    w("## Evaluation-cache effectiveness\n\n")
    any_cache = False
    for ds in sorted({r.dataset for r in result.records}):
        for p in sorted({r.p for r in result.records if r.dataset == ds}):
            cells = result.cells(ds, p=p)
            hits = sum(c.cache_hits for c in cells)
            misses = sum(c.cache_misses for c in cells)
            total = hits + misses
            if not total:
                continue
            any_cache = True
            w(
                f"- {ds}, p={p}: {hits} hits / {misses} misses "
                f"({100.0 * hits / total:.1f}% hit rate)\n"
            )
    if not any_cache:
        w("- no evaluation-cache activity recorded\n")
    w("\n")

    # Significance narrative (the paper's Table 6 discussion).
    w("## Accuracy significance vs sequential\n\n")
    any_row = False
    for ds in sorted({r.dataset for r in result.records}):
        seq = result.fold_values("test_accuracy", ds, None, 1)
        if len(seq) < 2:
            continue
        for width in sorted(
            {r.width for r in result.records if r.dataset == ds and r.p > 1},
            key=lambda x: (x is not None, x or 0),
        ):
            for p in ps:
                par = result.fold_values("test_accuracy", ds, width, p)
                if len(par) != len(seq):
                    continue
                t = paired_ttest(seq, par, confidence=confidence)
                if t.significant:
                    any_row = True
                    direction = "improved" if t.improved else "degraded"
                    m_seq, _ = mean_std(seq)
                    m_par, _ = mean_std(par)
                    w(
                        f"- {ds}, width {width_label(width)}, p={p}: "
                        f"{m_seq:.2f} → {m_par:.2f} ({direction}, p-value {t.pvalue:.3f})\n"
                    )
    if not any_row:
        w("- no cell differs significantly from the sequential run\n")
    return buf.getvalue()
