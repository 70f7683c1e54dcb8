"""Backend parity: same seed/dataset/config ⇒ identical learned theory.

The central guarantee of the backend layer: the P²-MDIE master/worker
generators are substrate-agnostic, so swapping the discrete-event
simulation for real multiprocessing changes *when* things run but never
*what* is learned — clause for clause, epoch for epoch.
"""

import pytest

from repro.backend import LocalProcessBackend
from repro.datasets import make_dataset
from repro.parallel import run_coverage_parallel, run_independent, run_p2mdie

LOCAL_TIMEOUT = 300.0


def _assert_parity(r_sim, r_loc):
    assert list(r_sim.theory) == list(r_loc.theory)
    assert r_sim.epochs == r_loc.epochs
    assert r_sim.uncovered == r_loc.uncovered
    # Same protocol run ⇒ same message sequence (count and tags).  Pickled
    # byte volumes may differ by a few percent: in the sim, clauses inside
    # one payload share subterm objects (pickle memoization shrinks them),
    # while real transport rebuilt them from separate messages.
    assert r_sim.comm.messages == r_loc.comm.messages
    assert set(r_sim.comm.bytes_by_tag) == set(r_loc.comm.bytes_by_tag)
    assert set(r_sim.comm.bytes_by_link) == set(r_loc.comm.bytes_by_link)
    assert r_loc.comm.bytes_total == pytest.approx(r_sim.comm.bytes_total, rel=0.10)


@pytest.mark.parametrize("name", ["trains", "krki"])
def test_p2mdie_sim_local_parity(name):
    ds = make_dataset(name, seed=0, scale="small")
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    r_sim = run_p2mdie(*args, p=2, seed=0)
    r_loc = run_p2mdie(*args, p=2, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT))
    assert len(r_loc.theory) >= 1
    _assert_parity(r_sim, r_loc)


def test_p2mdie_parity_more_workers():
    ds = make_dataset("trains", seed=0, scale="small")
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    r_sim = run_p2mdie(*args, p=4, seed=0)
    r_loc = run_p2mdie(*args, p=4, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT))
    _assert_parity(r_sim, r_loc)


def test_independent_sim_local_parity():
    ds = make_dataset("trains", seed=0, scale="small")
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    r_sim = run_independent(*args, p=2, seed=0)
    r_loc = run_independent(*args, p=2, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT))
    _assert_parity(r_sim, r_loc)


def test_coverage_parallel_sim_local_parity():
    ds = make_dataset("trains", seed=0, scale="small")
    args = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    r_sim = run_coverage_parallel(*args, p=2, batch_size=8, seed=0)
    r_loc = run_coverage_parallel(
        *args, p=2, batch_size=8, seed=0, backend=LocalProcessBackend(timeout=LOCAL_TIMEOUT)
    )
    _assert_parity(r_sim, r_loc)


def test_backend_name_string_accepted():
    ds = make_dataset("trains", seed=0, scale="small")
    r = run_p2mdie(
        ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=0, backend="local"
    )
    assert len(r.theory) >= 1
    assert r.seconds > 0.0
