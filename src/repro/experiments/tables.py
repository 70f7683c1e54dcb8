"""Render the paper's Tables 1-6 from a :class:`MatrixResult`.

Each function returns the table as text in the paper's row format
(dataset × width rows, processor-count columns), so benchmark output can
be compared side-by-side with the publication.
"""

from __future__ import annotations

from typing import Sequence

from repro.datasets.base import Dataset
from repro.experiments.runner import MatrixResult, width_label
from repro.experiments.stats import mean_std, paired_ttest
from repro.util.fmt import fmt_float, fmt_int, render_table

__all__ = [
    "table1_datasets",
    "table2_speedup",
    "table3_times",
    "table4_communication",
    "table5_epochs",
    "table6_accuracy",
]


def table1_datasets(datasets: Sequence[Dataset]) -> str:
    """Table 1: dataset characterisation."""
    rows = [[ds.name, fmt_int(ds.n_pos), fmt_int(ds.n_neg)] for ds in datasets]
    return render_table(["Dataset", "|E+|", "|E-|"], rows, title="Table 1. Datasets Characterization")


def _dataset_width_rows(result: MatrixResult, ps, cell_fn) -> list[list[str]]:
    rows = []
    datasets = sorted({r.dataset for r in result.records})
    for ds in datasets:
        widths = sorted(
            {r.width for r in result.records if r.dataset == ds and r.p > 1},
            key=lambda w: (w is not None, w if w is not None else 0),
        )
        for w in widths:
            rows.append([ds, width_label(w)] + [cell_fn(ds, w, p) for p in ps])
    return rows


def one_clock(result: MatrixResult, table: str) -> None:
    """Tables 2 and 3 set p = 1 beside p > 1: raise ``ValueError`` when
    the records' seconds are in two clocks (``RunRecord.clock``)."""
    clocks = sorted({r.clock for r in result.records})
    if len(clocks) > 1:
        mixed = " and ".join(f"{c} seconds" for c in clocks)
        raise ValueError(f"{table} would compare {mixed}; run it on the sim backend")


def table2_speedup(result: MatrixResult, ps: Sequence[int] = (2, 4, 8)) -> str:
    """Table 2: average speedup vs the sequential run, per width and p."""
    one_clock(result, "Table 2")

    def cell(ds: str, w, p: int) -> str:
        seq = result.fold_values("seconds", ds, None, 1)
        par = result.fold_values("seconds", ds, w, p)
        if not seq or not par:
            return "-"
        speedups = [s / q for s, q in zip(seq, par)]
        return fmt_float(sum(speedups) / len(speedups), 2)

    rows = _dataset_width_rows(result, ps, cell)
    return render_table(
        ["Dataset", "Width"] + [str(p) for p in ps],
        rows,
        title="Table 2. Average speedup observed for 2, 4, and 8 processors",
    )


def table3_times(result: MatrixResult, ps: Sequence[int] = (2, 4, 8)) -> str:
    """Table 3: average execution time in (virtual) seconds, incl. p=1."""
    one_clock(result, "Table 3")

    def fmt_secs(x: float) -> str:
        # small-scale runs are seconds, paper-scale thousands of seconds
        return fmt_float(x, 1) if x < 100 else fmt_int(x)

    def cell(ds: str, w, p: int) -> str:
        vals = result.fold_values("seconds", ds, w, p)
        return fmt_secs(sum(vals) / len(vals)) if vals else "-"

    rows = []
    datasets = sorted({r.dataset for r in result.records})
    for ds in datasets:
        widths = sorted(
            {r.width for r in result.records if r.dataset == ds and r.p > 1},
            key=lambda w: (w is not None, w if w is not None else 0),
        )
        for idx, w in enumerate(widths):
            seq = result.fold_values("seconds", ds, None, 1)
            seq_cell = fmt_secs(sum(seq) / len(seq)) if (seq and idx == 0) else "-"
            rows.append([ds, width_label(w), seq_cell] + [cell(ds, w, p) for p in ps])
    return render_table(
        ["Dataset", "Width", "1"] + [str(p) for p in ps],
        rows,
        title="Table 3. Average execution time (in seconds)",
    )


def table4_communication(result: MatrixResult, ps: Sequence[int] = (2, 4, 8)) -> str:
    """Table 4: average communication exchanged (MBytes)."""

    def cell(ds: str, w, p: int) -> str:
        vals = result.fold_values("mbytes", ds, w, p)
        if not vals:
            return "-"
        mb = sum(vals) / len(vals)
        return fmt_float(mb, 2) if mb < 10 else fmt_int(mb)

    rows = _dataset_width_rows(result, ps, cell)
    return render_table(
        ["Dataset", "Width"] + [str(p) for p in ps],
        rows,
        title="Table 4. Average communication exchanged (in MBytes)",
    )


def table5_epochs(result: MatrixResult, ps: Sequence[int] = (2, 4, 8)) -> str:
    """Table 5: average number of epochs."""

    def cell(ds: str, w, p: int) -> str:
        vals = result.fold_values("epochs", ds, w, p)
        return fmt_float(sum(vals) / len(vals), 1) if vals else "-"

    rows = _dataset_width_rows(result, ps, cell)
    return render_table(
        ["Dataset", "Width"] + [str(p) for p in ps],
        rows,
        title="Table 5. Average number of epochs",
    )


def table6_accuracy(result: MatrixResult, ps: Sequence[int] = (2, 4, 8), confidence: float = 0.98) -> str:
    """Table 6: average predictive accuracy, std in parentheses, '*' when
    the paired t-test flags a significant difference vs sequential."""

    rows = []
    datasets = sorted({r.dataset for r in result.records})
    for ds in datasets:
        widths = sorted(
            {r.width for r in result.records if r.dataset == ds and r.p > 1},
            key=lambda w: (w is not None, w if w is not None else 0),
        )
        seq = result.fold_values("test_accuracy", ds, None, 1)
        for idx, w in enumerate(widths):
            if seq and idx == 0:
                m, s = mean_std(seq)
                seq_cell = f"{m:.2f} ({s:.2f})"
            else:
                seq_cell = "-"
            cells = []
            for p in ps:
                vals = result.fold_values("test_accuracy", ds, w, p)
                if not vals:
                    cells.append("-")
                    continue
                m, s = mean_std(vals)
                star = ""
                if seq and len(seq) == len(vals) and len(vals) >= 2:
                    star = paired_ttest(seq, vals, confidence=confidence).star
                cells.append(f"{star}{m:.2f} ({s:.2f})")
            rows.append([ds, width_label(w), seq_cell] + cells)
    return render_table(
        ["Dataset", "Width", "1"] + [str(p) for p in ps],
        rows,
        title="Table 6. Average predictive accuracy (std); '*' = significant vs sequential",
    )
