"""Integration tests for the experiment runner and table renderers.

Uses the trains dataset (small and fast) with a reduced matrix so the whole
module runs in seconds.
"""

import pytest

from repro.datasets import make_dataset
from repro.experiments.crossval import kfold
from repro.experiments.runner import MatrixResult, RunRecord, run_cell, run_matrix
from repro.experiments.tables import (
    table1_datasets,
    table2_speedup,
    table3_times,
    table4_communication,
    table5_epochs,
    table6_accuracy,
)


@pytest.fixture(scope="module")
def matrix() -> MatrixResult:
    return run_matrix(
        dataset_names=("trains",),
        widths=(None, 2),
        ps=(2, 3),
        k_folds=3,
        scale="small",
        seed=4,
    )


class TestRunCell:
    def test_sequential_cell(self):
        ds = make_dataset("trains", seed=4, scale="small")
        fold = next(iter(kfold(ds.pos, ds.neg, k=3, seed=4)))
        rec = run_cell(ds, fold, p=1, width=None, seed=4)
        assert rec.p == 1
        assert rec.mbytes == 0.0
        assert rec.seconds > 0
        assert 0 <= rec.test_accuracy <= 100

    def test_parallel_cell(self):
        ds = make_dataset("trains", seed=4, scale="small")
        fold = next(iter(kfold(ds.pos, ds.neg, k=3, seed=4)))
        rec = run_cell(ds, fold, p=2, width=2, seed=4)
        assert rec.p == 2
        assert rec.mbytes > 0
        assert rec.width == 2


class TestMatrix:
    def test_record_count(self, matrix):
        # 3 folds x (1 sequential + 2 widths x 2 ps) = 15
        assert len(matrix.records) == 15

    def test_cells_lookup(self, matrix):
        assert len(matrix.cells("trains", None, 1)) == 3
        assert len(matrix.cells("trains", 2, 3)) == 3

    def test_fold_values_sorted(self, matrix):
        vals = matrix.fold_values("seconds", "trains", None, 1)
        assert len(vals) == 3

    def test_all_runs_terminate_with_theories(self, matrix):
        for r in matrix.records:
            assert r.epochs >= 1
            assert r.theory_size >= 0


class TestTables:
    def test_table1(self):
        ds = make_dataset("trains", seed=4, scale="small")
        out = table1_datasets([ds])
        assert "trains" in out and "|E+|" in out
        assert str(ds.n_pos) in out

    def test_table2_structure(self, matrix):
        out = table2_speedup(matrix, ps=(2, 3))
        assert "Table 2" in out
        assert "nolimit" in out and "2" in out
        # one row per (dataset, width)
        assert out.count("trains") == 2

    def test_table3_has_sequential_column(self, matrix):
        out = table3_times(matrix, ps=(2, 3))
        lines = [l for l in out.splitlines() if l.startswith("trains")]
        assert len(lines) == 2
        # second width row shows '-' for the shared sequential column
        assert "-" in lines[1]

    def test_table4(self, matrix):
        out = table4_communication(matrix, ps=(2, 3))
        assert "MBytes" in out

    def test_table5(self, matrix):
        out = table5_epochs(matrix, ps=(2, 3))
        assert "epochs" in out

    def test_table6_stars_and_std(self, matrix):
        out = table6_accuracy(matrix, ps=(2, 3))
        assert "(" in out  # std dev present
        assert "Table 6" in out

    def test_tables_render_without_sequential(self):
        m = run_matrix(
            dataset_names=("trains",),
            widths=(2,),
            ps=(2,),
            k_folds=2,
            scale="small",
            seed=4,
            include_sequential=False,
            max_epochs=2,
        )
        assert "trains" in table4_communication(m, ps=(2,))
        assert "trains" in table5_epochs(m, ps=(2,))
