"""The shape of the paper's evidence (§5): what Tables 2-6, the Fig. 3
trace and the §4.1 / §5.3 arguments *claim*, asserted on the small-scale
evaluation matrix that ``repro tables`` prints.

Absolute numbers belong to the synthetic generators and the simulated
cluster; the claims below are the ones the paper draws from them.
"""

import pytest

from repro.backend import SimBackend
from repro.cluster import FAST_ETHERNET, INFINIBAND_LIKE
from repro.datasets import make_dataset
from repro.experiments.runner import run_matrix
from repro.experiments.stats import paired_ttest
from repro.experiments.trace import occupancy
from repro.parallel import run_p2mdie

DATASETS = ("carcinogenesis", "mesh", "pyrimidines")  # Table 1
WIDTHS = (None, 10)
PS = (2, 4, 8)
FOLDS = 3
SEED = 0


@pytest.fixture(scope="module")
def matrix():
    """Every (dataset, width, p, fold) cell of Tables 2-6."""
    return run_matrix(
        dataset_names=DATASETS, widths=WIDTHS, ps=PS, k_folds=FOLDS, scale="small", seed=SEED
    )


def p2mdie(ds, **kw):
    return run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=SEED, **kw)


@pytest.mark.parametrize("ds", DATASETS)
class TestTables:
    def test_table2_parallel_execution_pays_and_grows(self, matrix, ds):
        # §5.3: profitable at every p, and processors beyond 2 help (at
        # small scale p=8 may saturate on tiny per-worker subsets, so the
        # growth check accepts the best of p in {4, 8}).
        seq = matrix.mean("seconds", ds, None, 1)
        s2, s4, s8 = (seq / matrix.mean("seconds", ds, 10, p) for p in PS)
        assert s2 > 1.0, f"{ds}: no speedup at p=2"
        assert s8 > 1.0, f"{ds}: no speedup at p=8"
        assert max(s4, s8) >= s2, f"{ds}: speedup did not grow beyond p=2"

    def test_table3_p8_beats_sequential(self, matrix, ds):
        assert matrix.mean("seconds", ds, 10, 8) < matrix.mean("seconds", ds, None, 1)

    def test_table4_communication_grows_with_p(self, matrix, ds):
        for width in WIDTHS:
            mb = [matrix.mean("mbytes", ds, width, p) for p in PS]
            assert mb[0] < mb[-1], f"{ds} w={width}: MBytes did not grow with p"
        # nolimit moves at least as much data as width 10 at p=8
        assert matrix.mean("mbytes", ds, None, 8) >= matrix.mean("mbytes", ds, 10, 8) * 0.9

    def test_table5_epochs_shrink_with_p(self, matrix, ds):
        # "In all cases there is a significant reduction in epochs as we
        # increase the number of processors" (§5.3).
        seq_epochs = matrix.mean("epochs", ds, None, 1)
        for width in WIDTHS:
            e2 = matrix.mean("epochs", ds, width, 2)
            e8 = matrix.mean("epochs", ds, width, 8)
            assert e8 <= e2, f"{ds} w={width}: epochs grew with p"
            assert e8 < seq_epochs, f"{ds} w={width}: no epoch reduction vs sequential"


def test_table6_no_significant_accuracy_decline(matrix):
    # Partitioned, pipelined learning does not significantly change
    # predictive accuracy (98 % confidence, paired t-test): most cells are
    # indistinguishable from sequential and the rare star is no decline.
    n_cells = n_signif_decline = 0
    for ds in DATASETS:
        seq = matrix.fold_values("test_accuracy", ds, None, 1)
        for width in WIDTHS:
            for p in PS:
                par = matrix.fold_values("test_accuracy", ds, width, p)
                assert len(par) == len(seq) == FOLDS
                n_cells += 1
                r = paired_ttest(seq, par)
                n_signif_decline += r.significant and not r.improved
    assert n_cells == len(DATASETS) * len(WIDTHS) * len(PS)
    assert n_signif_decline <= max(1, n_cells // 6), (
        f"{n_signif_decline}/{n_cells} cells significantly WORSE than sequential"
    )


@pytest.fixture(scope="module")
def mesh():
    """The chattiest of the three datasets."""
    return make_dataset("mesh", seed=SEED, scale="small")


def test_width_constrains_communication(mesh):
    # §5.3: wide pipelines move more data; every width still learns.
    narrow, wide = p2mdie(mesh, p=4, width=1), p2mdie(mesh, p=4, width=None)
    assert narrow.mbytes < wide.mbytes
    assert len(narrow.theory) >= 1 and len(wide.theory) >= 1


def test_faster_fabric_helps_the_unconstrained_pipeline_most(mesh):
    # The paper blames nolimit's poor 8-processor speedup on communication
    # volume over its Fast-Ethernet-class fabric.  If so, the
    # communication-bound configuration gains at least as much from a
    # faster fabric as the width-constrained one.
    run = {
        (fabric, width): p2mdie(mesh, p=8, width=width, backend=SimBackend(network=fabric))
        for fabric in (FAST_ETHERNET, INFINIBAND_LIKE)
        for width in WIDTHS
    }
    gain = {
        w: run[FAST_ETHERNET, w].seconds / run[INFINIBAND_LIKE, w].seconds for w in WIDTHS
    }
    assert gain[None] >= gain[10] * 0.98
    # Volume is fabric-independent: same messages, same sizes.
    for w in WIDTHS:
        assert run[FAST_ETHERNET, w].comm.bytes_total == run[INFINIBAND_LIKE, w].comm.bytes_total


def test_fig3_pipeline_folds_back_and_is_balanced():
    ds = make_dataset("carcinogenesis", seed=SEED, scale="small")
    res = p2mdie(ds, p=3, width=10, record_trace=True, max_epochs=1)
    # Fig. 3: every worker runs every stage of the three live pipelines.
    for rank in (1, 2, 3):
        ran = {s.name for s in res.trace if s.rank == rank}
        assert {"search(s1)", "search(s2)", "search(s3)"} <= ran, f"rank {rank} missed a stage"
    # §4.1: "the granularity of the tasks executed in parallel are very
    # similar, leading to balanced computations".
    occ = occupancy(res.trace, res.seconds)
    workers = [busy for rank, busy in occ.items() if rank != 0]
    assert len(workers) == 3
    assert max(workers) - min(workers) < 0.6


def test_weak_scaling_time_per_epoch_stays_flat():
    # "Fosters scalability on the number of examples": with 40 positives
    # per worker, eight workers on eight times the data may not take three
    # times as long per epoch as one worker on its share.
    per_epoch = {}
    for p in (1, 8):
        ds = make_dataset("mesh", seed=SEED, n_pos=40 * p, n_neg=6 * p)
        res = p2mdie(ds, p=p, width=10)
        assert res.epochs >= 1
        per_epoch[p] = res.seconds / res.epochs
    assert per_epoch[8] < 3.0 * per_epoch[1], f"weak scaling collapsed: {per_epoch}"
