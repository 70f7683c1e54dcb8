"""Experiment runner: one (dataset × width × p × fold) cell per run.

Reproduces the paper's protocol (§5.2): 5-fold cross-validation; for each
fold the sequential algorithm (p=1) and P²-MDIE at p ∈ {2, 4, 8} with
pipeline width ∈ {nolimit, 10}; reported values are fold averages.

Every cell runs through :func:`repro.run.run` and records the clock of its
seconds.  On the simulator every cell is virtual seconds of one cost model;
on a real backend p > 1 is wall time, which Tables 2 and 3 refuse to mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.backend import Backend
from repro.datasets.base import Dataset, make_dataset
from repro.experiments.crossval import Fold, kfold
from repro.ilp.theory import accuracy
from repro.run import run

__all__ = ["RunRecord", "MatrixResult", "run_cell", "run_matrix", "WIDTH_LABELS", "width_label"]

#: the paper's two pipeline configurations.
WIDTH_LABELS = {"nolimit": None, "10": 10}


def width_label(width: Optional[int]) -> str:
    return "nolimit" if width is None else str(width)


@dataclass(frozen=True)
class RunRecord:
    """One cell of the evaluation matrix."""

    dataset: str
    width: Optional[int]  # None = nolimit
    p: int  # 1 = sequential MDIE
    fold: int
    seconds: float
    mbytes: float
    epochs: int
    test_accuracy: float
    theory_size: int
    uncovered: int
    #: the clock of ``seconds``: "virtual" or "wall" (see repro.run).
    clock: str = "virtual"


@dataclass
class MatrixResult:
    """All records of a matrix sweep, with lookup helpers."""

    records: list[RunRecord] = field(default_factory=list)

    def cells(
        self,
        dataset: Optional[str] = None,
        width: Optional[object] = ...,
        p: Optional[int] = None,
    ) -> list[RunRecord]:
        out = self.records
        if dataset is not None:
            out = [r for r in out if r.dataset == dataset]
        if width is not ...:
            out = [r for r in out if r.width == width]
        if p is not None:
            out = [r for r in out if r.p == p]
        return out

    def fold_values(self, attr: str, dataset: str, width, p: int) -> list[float]:
        recs = sorted(self.cells(dataset, width, p), key=lambda r: r.fold)
        return [getattr(r, attr) for r in recs]


def run_cell(
    ds: Dataset,
    fold: Fold,
    p: int,
    width: Optional[int],
    seed: int,
    max_epochs: Optional[int] = None,
    backend: Union[Backend, str, None] = None,
) -> RunRecord:
    """Run one algorithm configuration on one fold.

    ``backend`` selects the execution substrate for the parallel runs
    (``p > 1``); the sequential baseline always runs in-process in
    virtual seconds of the backend's cost model when it is a
    ``SimBackend``, else of the default one (``SimBackend()``'s).  The
    record carries the clock of its seconds.
    """
    train = replace(ds, pos=list(fold.train_pos), neg=list(fold.train_neg))
    outcome = run(
        train, "mdie" if p == 1 else "p2mdie", p=p, width=width, seed=seed,
        backend=backend, max_epochs=max_epochs,
    )
    engine = ds.config.make_engine(ds.kb)
    acc = accuracy(engine, outcome.theory, list(fold.test_pos), list(fold.test_neg))
    return RunRecord(
        dataset=ds.name,
        width=width if p > 1 else None,
        p=p,
        fold=fold.index,
        seconds=outcome.seconds,
        mbytes=outcome.mbytes,
        epochs=outcome.epochs,
        test_accuracy=acc,
        theory_size=len(outcome.theory),
        uncovered=outcome.uncovered,
        clock=outcome.clock,
    )


def run_matrix(
    dataset_names: Sequence[str] = ("carcinogenesis", "mesh", "pyrimidines"),
    widths: Sequence[Optional[int]] = (None, 10),
    ps: Sequence[int] = (2, 4, 8),
    k_folds: int = 5,
    scale: str = "small",
    seed: int = 0,
    include_sequential: bool = True,
    max_epochs: Optional[int] = None,
    backend: Union[Backend, str, None] = None,
) -> MatrixResult:
    """Run the full evaluation matrix of §5.

    The sequential baseline (p=1) is run once per fold and shared by both
    width configurations, mirroring the '-' cells in Tables 3/6.
    ``backend`` applies to every cell (see :func:`run_cell`).
    """
    out = MatrixResult()
    for name in dataset_names:
        ds = make_dataset(name, seed=seed, scale=scale)
        for fold in kfold(ds.pos, ds.neg, k=k_folds, seed=seed):
            if include_sequential:
                out.records.append(
                    run_cell(ds, fold, p=1, width=None, seed=seed, max_epochs=max_epochs, backend=backend)
                )
            for width in widths:
                for p in ps:
                    out.records.append(
                        run_cell(ds, fold, p=p, width=width, seed=seed, max_epochs=max_epochs, backend=backend)
                    )
    return out
