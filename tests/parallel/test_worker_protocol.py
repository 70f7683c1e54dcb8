"""Protocol-level unit tests for P2Worker: drive the generator by hand and
inspect every syscall it emits — the Fig. 6/7 semantics in isolation.

A tiny harness stands in for the scheduler: it feeds messages and records
Send/Bcast/Compute operations, letting tests assert exact message routing
(ring order, stage counting, master hand-off) without virtual time.
"""

import pytest

from repro.cluster.message import Message, Tag, payload_nbytes
from repro.cluster.process import BcastOp, ComputeOp, ProcContext, RecvOp, SendOp
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.parallel.messages import (
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    PipelineRules,
    PipelineTask,
    StartPipeline,
    Stop,
)
from repro.parallel.p2mdie import SharedProblem
from repro.parallel.partition import partition_examples
from repro.parallel.worker import MASTER_RANK, P2Worker
from repro.util.rng import make_rng


class WorkerHarness:
    """Runs a worker generator, buffering its outbound operations."""

    def __init__(self, worker: P2Worker, n_procs: int):
        self.worker = worker
        ctx = ProcContext(worker.rank, n_procs)
        self.gen = worker.run(ctx)
        self.sent: list[SendOp] = []
        self.computed: list[ComputeOp] = []
        self._advance(None)  # prime to first recv

    def _advance(self, value):
        try:
            op = self.gen.send(value)
        except StopIteration:
            self.stopped = True
            return
        self.stopped = False
        while True:
            if isinstance(op, RecvOp):
                self.waiting = op
                return
            if isinstance(op, SendOp):
                self.sent.append(op)
            elif isinstance(op, BcastOp):
                for dst in op.dsts:
                    self.sent.append(SendOp(dst, op.payload, op.tag))
            elif isinstance(op, ComputeOp):
                self.computed.append(op)
            else:  # pragma: no cover
                raise TypeError(op)
            try:
                op = self.gen.send(None)
            except StopIteration:
                self.stopped = True
                return

    def deliver(self, payload, src=0, tag="t"):
        msg = Message(
            src=src,
            dst=self.worker.rank,
            tag=tag,
            payload=payload,
            nbytes=payload_nbytes(payload),
            send_time=0.0,
            arrival_time=0.0,
            seq=0,
        )
        self._advance(msg)

    def take_sent(self):
        out, self.sent = self.sent, []
        return out


@pytest.fixture
def problem():
    kb = KnowledgeBase()
    kb.add_program(
        "parent(ann, mary). parent(tom, eve). parent(bob, joan)."
        "parent(eve, kim). parent(mary, liz). parent(liz, pat)."
        "female(mary). female(eve). female(joan). female(kim). female(liz). female(pat)."
    )
    pos = [
        parse_term(s)
        for s in (
            "daughter(mary, ann)",
            "daughter(eve, tom)",
            "daughter(joan, bob)",
            "daughter(kim, eve)",
            "daughter(liz, mary)",
            "daughter(pat, liz)",
        )
    ]
    neg = [parse_term("daughter(ann, mary)"), parse_term("daughter(tom, eve)")]
    modes = ModeSet(
        [
            "modeh(1, daughter(+person, +person))",
            "modeb(*, parent(-person, +person))",
            "modeb(1, female(+person))",
        ]
    )
    config = ILPConfig(min_pos=1, max_clause_length=2, var_depth=2, max_nodes=200)
    parts = partition_examples(pos, neg, 3, make_rng(0))
    return SharedProblem(kb, parts, modes, config)


def make_loaded_worker(problem, rank=1, n=3):
    h = WorkerHarness(P2Worker(rank, problem, n, seed=0), n_procs=n + 1)
    h.deliver(LoadExamples(partition_id=rank), src=0, tag=Tag.LOAD_EXAMPLES)
    h.take_sent()
    return h


class TestLoad:
    def test_loads_own_partition(self, problem):
        h = make_loaded_worker(problem, rank=2)
        assert h.worker.store.n_pos == len(problem.partitions[1].pos)
        assert any(c.label == "load" for c in h.computed)


class TestStartPipeline:
    def test_first_stage_forwards_to_next_worker(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(StartPipeline(width=5), src=0, tag=Tag.START_PIPELINE)
        sent = h.take_sent()
        assert len(sent) == 1
        op = sent[0]
        assert op.dst == 2  # ring successor
        assert op.tag == Tag.LEARN_RULE
        task: PipelineTask = op.payload
        assert task.step == 2
        assert task.origin == 1
        assert task.bottom is not None

    def test_saturation_charged(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(StartPipeline(width=5), src=0, tag=Tag.START_PIPELINE)
        labels = [c.label for c in h.computed]
        assert "saturate" in labels
        assert any(l.startswith("search(s1)") for l in labels)


class TestPipelineStage:
    def test_last_stage_reports_to_master(self, problem):
        h = make_loaded_worker(problem, rank=3, n=3)
        # a stage-3 task arriving at worker 3 of 3 must go to the master
        h2 = make_loaded_worker(problem, rank=1)
        h2.deliver(StartPipeline(width=5), src=0, tag=Tag.START_PIPELINE)
        task = h2.take_sent()[0].payload
        task3 = PipelineTask(
            bottom=task.bottom, step=3, width=task.width, rules=task.rules, origin=1
        )
        h.deliver(task3, src=2, tag=Tag.LEARN_RULE)
        sent = h.take_sent()
        assert len(sent) == 1
        assert sent[0].dst == MASTER_RANK
        assert sent[0].tag == Tag.RULES
        assert isinstance(sent[0].payload, PipelineRules)
        assert sent[0].payload.origin == 1

    def test_empty_bottom_passes_through(self, problem):
        h = make_loaded_worker(problem, rank=2)
        task = PipelineTask(bottom=None, step=2, width=5, rules=(), origin=1)
        h.deliver(task, src=1, tag=Tag.LEARN_RULE)
        sent = h.take_sent()
        assert sent[0].dst == 3
        assert sent[0].payload.rules == ()

    def test_width_caps_forwarded_rules(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(StartPipeline(width=1), src=0, tag=Tag.START_PIPELINE)
        task = h.take_sent()[0].payload
        assert len(task.rules) <= 1


class TestEvaluateAndMark:
    def test_evaluate_replies_in_order(self, problem):
        from repro.logic.parser import parse_clause

        h = make_loaded_worker(problem, rank=1)
        rules = (
            parse_clause("daughter(A, B) :- parent(B, A), female(A)."),
            parse_clause("daughter(A, B) :- parent(B, A)."),
        )
        h.deliver(EvaluateRequest(rules=rules), src=0, tag=Tag.EVALUATE)
        sent = h.take_sent()
        assert len(sent) == 1
        res: EvaluateResult = sent[0].payload
        assert sent[0].dst == MASTER_RANK
        assert len(res.stats) == 2
        # the stricter rule covers no more positives than the general one
        assert res.stats[0].pos <= res.stats[1].pos

    def test_mark_covered_shrinks_alive(self, problem):
        from repro.logic.parser import parse_clause

        h = make_loaded_worker(problem, rank=1)
        before = h.worker.store.remaining
        rule = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
        h.deliver(MarkCovered(rule=rule), src=0, tag=Tag.MARK_COVERED)
        assert h.worker.store.remaining < before
        assert h.take_sent() == []  # no reply expected


class TestStop:
    def test_stop_terminates(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(Stop(), src=0, tag=Tag.STOP)
        assert h.stopped
