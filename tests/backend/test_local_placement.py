"""Where LocalProcessBackend puts its ranks, and what they import after the fork.

Worker ranks are pinned round-robin to single CPUs of the parent's mask and
the master keeps the whole mask (``place_ranks``), unless another run of the
same process is in flight; a rank should find every module it needs already
imported by the parent.  CI runs this module a second time under
``taskset -c 0``, where nothing may be pinned.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.backend import LocalProcessBackend, local
from repro.backend.local import place_ranks
from repro.cluster.process import SimProcess
from repro.parallel.messages import Stop

ROOT = pathlib.Path(__file__).resolve().parents[2]

N_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


PINNED = {0: None, 1: frozenset({0}), 2: frozenset({3})}
UNPINNED = {0: None, 1: None, 2: None}


class TestPlaceRanks:
    def test_workers_round_robin_master_unpinned(self):
        assert place_ranks(range(5), [0, 1, 2]) == {
            0: None,
            1: frozenset({0}),
            2: frozenset({1}),
            3: frozenset({2}),
            4: frozenset({0}),
        }

    def test_one_cpu_pins_nothing(self):
        assert place_ranks(range(4), [3]) == {r: None for r in range(4)}

    def test_no_mask_pins_nothing(self):
        assert place_ranks(range(3), []) == UNPINNED


class TestPlacement:
    @pytest.fixture(autouse=True)
    def _mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 0, 3}, raising=False)
        monkeypatch.setattr(local, "_in_flight", 0)

    def test_reads_the_sorted_mask(self):
        with local._placement(3) as placement:
            assert placement == PINNED

    def test_missing_sched_getaffinity_pins_nothing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        with local._placement(3) as placement:
            assert placement == UNPINNED

    def test_a_run_beside_another_pins_nothing(self):
        with local._placement(3) as first:
            with local._placement(3) as second:
                assert (first, second) == (PINNED, UNPINNED)
        with local._placement(3) as alone_again:
            assert alone_again == PINNED

    def test_a_failed_run_leaves_the_next_one_alone(self):
        with pytest.raises(RuntimeError):
            with local._placement(3):
                raise RuntimeError("fork failed")
        with local._placement(3) as placement:
            assert placement == PINNED


class ReportsAffinity(SimProcess):
    """Ships home the CPU set it ran on."""

    def run(self, ctx):
        if self.rank == 0:
            for w in (1, 2):
                yield ctx.send(w, Stop(), tag="t")
        else:
            yield ctx.recv(src=0)

    def final_state(self):
        return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(N_CPUS < 2, reason="one CPU: nothing is pinned")
def test_live_workers_run_on_distinct_single_cpus():
    run = LocalProcessBackend(timeout=60).run([ReportsAffinity(r) for r in range(3)])
    master, w1, w2 = run.procs
    assert len(w1) == len(w2) == 1
    assert w1 != w2
    assert master == sorted(os.sched_getaffinity(0))


# A fresh interpreter, so modules an earlier test imported into this one
# cannot hide a lazy import.  ``final_state`` is asked for after the rank
# has sent, received and encoded its report.
_WARM_PROBE = """
import json, sys
from repro.backend import LocalProcessBackend
from repro.cluster.process import SimProcess

class Probe(SimProcess):
    def run(self, ctx):
        self.before = set(sys.modules)
        if self.rank == 0:
            # Imported here, so a module the parent failed to import
            # shows up as new in this rank.
            from repro.parallel.messages import Stop

            yield ctx.send(1, Stop(), tag="t")
        else:
            yield ctx.recv(src=0)

    def final_state(self):
        return sorted(m for m in sys.modules if m.startswith("repro") and m not in self.before)

run = LocalProcessBackend(timeout=60).run([Probe(0), Probe(1)])
print(json.dumps(run.procs))
"""


def test_forked_ranks_import_nothing_after_start():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _WARM_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[[], []]"
