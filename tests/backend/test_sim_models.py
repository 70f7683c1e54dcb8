"""The simulated fabric and cost model reach the run.

Virtual seconds and bytes of one trains run at p = 2 under a fabric and a
cost model other than the defaults, and the sequential run's seconds
under the default cost model.  The values are the simulator's, pinned:
a change that drops a model on its way to the simulator moves them.
"""

import pytest

from repro.backend import SimBackend
from repro.cluster import INFINIBAND_LIKE, OpsCostModel
from repro.datasets import make_dataset
from repro.parallel import run_p2mdie
from repro.run import run


@pytest.fixture(scope="module")
def trains():
    return make_dataset("trains")


def p2(ds, **models):
    backend = SimBackend(**models)
    return run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=0, backend=backend)


def test_default_models(trains):
    res = p2(trains)
    assert (res.seconds, res.comm.bytes_total) == (0.3313622727272728, 2662)


def test_fabric_moves_seconds_not_bytes(trains):
    res = p2(trains, network=INFINIBAND_LIKE)
    assert (res.seconds, res.comm.bytes_total) == (0.32990310555555546, 2662)


def test_cost_model_moves_seconds_not_bytes(trains):
    res = p2(trains, cost_model=OpsCostModel(sec_per_op=1e-6))
    assert (res.seconds, res.comm.bytes_total) == (0.00988263636363636, 2662)


def test_sequential_seconds_use_the_default_cost_model(trains):
    assert run(trains, "mdie").seconds == 0.34316


def test_sequential_seconds_use_the_backends_cost_model(trains):
    """A speedup's two sides are priced by one model: ``mdie`` handed a
    ``SimBackend`` charges its ops at that backend's rate."""
    out = run(trains, "mdie", backend=SimBackend(cost_model=OpsCostModel(sec_per_op=1e-6)))
    assert out.seconds == out.ops * 1e-6


def test_the_matrix_prices_its_sequential_cells_with_the_backend():
    from repro.cluster.costmodel import DEFAULT_COST_MODEL
    from repro.experiments.runner import run_matrix

    def seq_seconds(backend):
        kw = dict(widths=(None,), ps=(), k_folds=2, backend=backend)
        return [r.seconds for r in run_matrix(("trains",), **kw).records]

    doubled = SimBackend(cost_model=OpsCostModel(sec_per_op=2 * DEFAULT_COST_MODEL.sec_per_op))
    assert seq_seconds(doubled) == [2 * s for s in seq_seconds(None)]
