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
