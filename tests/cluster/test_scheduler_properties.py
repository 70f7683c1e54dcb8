"""Property-based tests for the discrete-event scheduler.

Random master/worker workloads (jobs of random compute sizes scattered to
random workers) must always satisfy the causality and accounting
invariants, regardless of schedule shape.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimBackend
from repro.cluster.costmodel import OpsCostModel
from repro.cluster.network import NetworkModel
from repro.cluster.process import SimProcess
from repro.fault.plan import FaultPlan, Straggler
from repro.parallel.messages import Ping, Stop

NET = NetworkModel(latency_s=0.01, bandwidth_bps=1e6, send_overhead_s=0.001)
COST = OpsCostModel(sec_per_op=0.001)


class Boss(SimProcess):
    def __init__(self, jobs, n_workers):
        super().__init__(0)
        self.jobs = jobs
        self.n_workers = n_workers
        self.replies = []

    def run(self, ctx):
        for worker, size in self.jobs:
            yield ctx.send(worker, Ping(token=size), tag="job")
        for w in range(1, self.n_workers + 1):
            yield ctx.send(w, Stop(), tag="done")
        expected = len(self.jobs)
        for _ in range(expected):
            msg = yield ctx.recv(tag="reply")
            self.replies.append((msg.src, msg.payload.token))


class Grunt(SimProcess):
    def run(self, ctx):
        while True:
            msg = yield ctx.recv()
            if msg.tag == "done":
                # drain any jobs that arrive after the done marker? cannot:
                # FIFO per link guarantees jobs precede the marker.
                return
            yield ctx.compute(msg.payload.token)
            yield ctx.send(0, Ping(token=msg.payload.token * 2), tag="reply")


@st.composite
def workload(draw):
    n_workers = draw(st.integers(1, 5))
    jobs = draw(
        st.lists(
            st.tuples(st.integers(1, n_workers), st.integers(1, 50)),
            min_size=0,
            max_size=15,
        )
    )
    return n_workers, jobs


@given(workload())
@settings(max_examples=60, deadline=None)
def test_all_jobs_answered(data):
    n_workers, jobs = data
    boss = Boss(jobs, n_workers)
    SimBackend(network=NET, cost_model=COST).run([boss] + [Grunt(i) for i in range(1, n_workers + 1)])
    assert sorted(p for _, p in boss.replies) == sorted(s * 2 for _, s in jobs)


@given(workload())
@settings(max_examples=60, deadline=None)
def test_makespan_at_least_critical_path(data):
    """Virtual completion time can never beat the per-worker compute sum."""
    n_workers, jobs = data
    boss = Boss(jobs, n_workers)
    run = SimBackend(network=NET, cost_model=COST).run([boss] + [Grunt(i) for i in range(1, n_workers + 1)])
    per_worker: dict[int, float] = {}
    for w, size in jobs:
        per_worker[w] = per_worker.get(w, 0.0) + COST.seconds_for_ops(size)
    if per_worker:
        assert run.seconds >= max(per_worker.values())


@given(workload())
@settings(max_examples=60, deadline=None)
def test_byte_accounting_exact(data):
    """Total bytes equals the sum over links of per-link bytes and over
    tags of per-tag bytes."""
    n_workers, jobs = data
    boss = Boss(jobs, n_workers)
    run = SimBackend(network=NET, cost_model=COST).run([boss] + [Grunt(i) for i in range(1, n_workers + 1)])
    assert sum(run.comm.bytes_by_link.values()) == run.comm.bytes_total
    assert sum(run.comm.bytes_by_tag.values()) == run.comm.bytes_total
    # message count: jobs + done markers + replies
    assert run.comm.messages == len(jobs) * 2 + n_workers


@given(workload(), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_straggler_monotone(data, slow_factor):
    """Slowing one worker can never shorten the run, nor stretch it by
    more than the worker's slowdown factor."""
    n_workers, jobs = data
    def build(fault_plan=None):
        return SimBackend(network=NET, cost_model=COST).run(
            [Boss(jobs, n_workers)] + [Grunt(i) for i in range(1, n_workers + 1)],
            fault_plan=fault_plan,
        )

    base = build()
    slowed = build(FaultPlan(stragglers=(Straggler(1, float(slow_factor)),)))
    assert slowed.seconds >= base.seconds - 1e-12
    assert slowed.seconds <= slow_factor * base.seconds + 1e-12


@given(workload(), st.data())
@settings(max_examples=40, deadline=None)
def test_slowing_any_worker_scales_its_compute_only(data, draw):
    """A straggler on any worker leaves every reply unchanged and charges
    that worker exactly its factor times the compute it did unslowed."""
    n_workers, jobs = data
    rank = draw.draw(st.integers(1, n_workers))
    factor = draw.draw(st.sampled_from([1.0, 1.5, 3.0]))

    def build(fault_plan=None):
        boss = Boss(jobs, n_workers)
        run = SimBackend(network=NET, cost_model=COST, record_trace=True).run(
            [boss] + [Grunt(i) for i in range(1, n_workers + 1)],
            fault_plan=fault_plan,
        )
        busy = {w: 0.0 for w in range(1, n_workers + 1)}
        for iv in run.trace:
            busy[iv.rank] += iv.end - iv.start
        return boss, run, busy

    base_boss, base, base_busy = build()
    slowed_boss, slowed, slowed_busy = build(FaultPlan(stragglers=(Straggler(rank, factor),)))
    assert sorted(slowed_boss.replies) == sorted(base_boss.replies)
    assert slowed.comm.bytes_total == base.comm.bytes_total
    for w in base_busy:
        scale = factor if w == rank else 1.0
        assert abs(slowed_busy[w] - scale * base_busy[w]) <= 1e-9
    assert base.seconds - 1e-12 <= slowed.seconds <= factor * base.seconds + 1e-12
