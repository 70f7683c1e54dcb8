"""A worker's trip home carries its counters, not the problem it was handed.

``WallClockContext.report`` ships ``proc.final_state()``.  Rank 0 and plain
processes are their own final state (``test_backends.py`` /
``test_local_transport.py`` read attributes off them); a pipeline worker's
is its ``cache_stats()`` — two integers per hosted shard, all that
``collect_cache_stats`` reads.
"""

import pickle

import pytest

from repro.backend import LocalProcessBackend, SimBackend
from repro.datasets import make_dataset
from repro.parallel import run_p2mdie
from repro.parallel.worker import P2Worker, WorkerCounters


class RecordingSim(SimBackend):
    """A sim run whose (in-process, mutated) ranks can be looked at after."""

    def _run(self, procs, plan):
        self.ranks = procs
        return super()._run(procs, plan)


@pytest.fixture(scope="module")
def trains():
    return make_dataset("trains", seed=0, scale="small")


def learn(ds, backend):
    return run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=0, backend=backend)


def test_final_state_is_counters_without_the_problem(trains):
    sim = RecordingSim()
    res = learn(trains, sim)
    master, *workers = sim.ranks
    assert master.final_state() is master
    for worker in workers:
        assert isinstance(worker, P2Worker) and worker.shared is not None and worker.engine is not None
        home = worker.final_state()
        assert isinstance(home, WorkerCounters) and home.rank == worker.rank
        assert not hasattr(home, "shared") and not hasattr(home, "engine")
        assert home.cache_stats() == worker.cache_stats() == {
            vr: (s.store.cache_hits(), s.store.cache_misses()) for vr, s in worker.shards.items()
        }
        assert len(pickle.dumps(home)) < 400 < len(pickle.dumps(worker)) // 20
    assert res.cache_stats == {w.rank: w.cache_stats()[w.rank] for w in workers}


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_cache_stats_are_the_same_on_sim_and_local(trains, start_method):
    """``spawn`` pickles the whole worker *to* the child (``final_state`` is
    asked for at report time, it is no ``__getstate__``) and gets the
    counters back."""
    sim = learn(trains, "sim")
    local = learn(trains, LocalProcessBackend(timeout=120, start_method=start_method))
    assert local.cache_stats == sim.cache_stats and set(sim.cache_stats) == {1, 2}
    assert any(misses for _, misses in sim.cache_stats.values())
    assert [str(c) for c in local.theory] == [str(c) for c in sim.theory]
