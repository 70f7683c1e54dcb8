"""Evaluation harness: cross-validation, statistics, the experiment
matrix runner, table renderers (Tables 1-6) and the pipeline trace
(Figs. 3-4)."""

from repro.experiments.crossval import Fold, kfold
from repro.experiments.runner import MatrixResult, RunRecord, run_cell, run_matrix, width_label
from repro.experiments.stats import PairedTest, mean_std, paired_ttest
from repro.experiments.tables import (
    table1_datasets,
    table2_speedup,
    table3_times,
    table4_communication,
    table5_epochs,
    table6_accuracy,
)
from repro.experiments.trace import occupancy, render_gantt, stage_summary

__all__ = [
    "Fold",
    "kfold",
    "MatrixResult",
    "RunRecord",
    "run_cell",
    "run_matrix",
    "width_label",
    "PairedTest",
    "mean_std",
    "paired_ttest",
    "table1_datasets",
    "table2_speedup",
    "table3_times",
    "table4_communication",
    "table5_epochs",
    "table6_accuracy",
    "occupancy",
    "render_gantt",
    "stage_summary",
]
