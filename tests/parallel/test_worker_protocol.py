"""Protocol-level unit tests for P2Worker: drive the generator by hand and
inspect every syscall it emits — the Fig. 6/7 semantics in isolation.

A tiny harness stands in for the scheduler: it feeds messages and records
Send/Bcast/Compute operations, letting tests assert exact message routing
(ring order, stage counting, master hand-off) without virtual time.
"""

from dataclasses import replace

import pytest

from repro.cluster.message import Message, Tag, payload_nbytes
from repro.cluster.process import BcastOp, ComputeOp, ProcContext, RecvOp, SendOp
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    PipelineRules,
    PipelineTask,
    StartPipeline,
    Stop,
    UpdateRouting,
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

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_reads_its_partition_from_the_shared_problem(self, problem, rank):
        """The load message names a partition and nothing else: the
        examples and the KB come from the shared problem, not a copy."""
        h = make_loaded_worker(problem, rank=rank)
        part = problem.partitions[rank - 1]
        assert h.worker.store.pos == list(part.pos)
        assert h.worker.store.neg == list(part.neg)
        assert h.worker.engine.kb is problem.kb
        assert h.computed[-1].ops == len(part.pos) + len(part.neg)
        assert h.sent == []


class Plain:
    """A plan-free run's messages: unstamped requests and replies."""

    EPOCH, ROUND = None, None

    @staticmethod
    def start(width, origin):
        return StartPipeline(width=width)

    @staticmethod
    def task(**fields):
        return PipelineTask(**fields)

    @staticmethod
    def evaluate(rules):
        return EvaluateRequest(rules=rules)


class Healing:
    """A run under a fault plan: the same messages, stamped with an epoch
    / round that every reply must echo."""

    EPOCH, ROUND = 7, 3

    @staticmethod
    def start(width, origin):
        return StartPipeline(width=width, origin=origin, epoch=Healing.EPOCH)

    @staticmethod
    def task(**fields):
        return PipelineTask(epoch=Healing.EPOCH, **fields)

    @staticmethod
    def evaluate(rules):
        return EvaluateRequest(rules=rules, round=Healing.ROUND)


def first_stage_output(problem, family, rank=1, width=5):
    """The stage-2 task worker ``rank`` emits when asked to start."""
    h = make_loaded_worker(problem, rank=rank)
    h.deliver(family.start(width, rank), src=0, tag=Tag.START_PIPELINE)
    (op,) = h.take_sent()
    return op


RULES = (
    "daughter(A, B) :- parent(B, A), female(A).",
    "daughter(A, B) :- parent(B, A).",
)


class TestStartPipeline:
    family = Plain

    def test_first_stage_forwards_to_next_worker(self, problem):
        op = first_stage_output(problem, self.family)
        assert op.dst == 2  # ring successor
        assert op.tag == Tag.LEARN_RULE
        task = op.payload
        assert type(task) is PipelineTask and task.epoch == self.family.EPOCH
        assert task.step == 2
        assert task.origin == 1
        assert task.bottom is not None

    def test_saturation_charged(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(self.family.start(5, 1), src=0, tag=Tag.START_PIPELINE)
        labels = [c.label for c in h.computed]
        assert "saturate" in labels
        assert any(l.startswith("search(s1)") for l in labels)


class TestPipelineStage:
    family = Plain

    def test_last_stage_reports_to_master(self, problem):
        h = make_loaded_worker(problem, rank=3, n=3)
        # a stage-3 task arriving at worker 3 of 3 must go to the master
        task = first_stage_output(problem, self.family).payload
        task3 = self.family.task(
            bottom=task.bottom, step=3, width=task.width, rules=task.rules, origin=1
        )
        h.deliver(task3, src=2, tag=Tag.LEARN_RULE)
        sent = h.take_sent()
        assert len(sent) == 1
        assert sent[0].dst == MASTER_RANK
        assert sent[0].tag == Tag.RULES
        assert type(sent[0].payload) is PipelineRules
        assert sent[0].payload.epoch == self.family.EPOCH
        assert sent[0].payload.origin == 1

    def test_empty_bottom_passes_through(self, problem):
        h = make_loaded_worker(problem, rank=2)
        task = self.family.task(bottom=None, step=2, width=5, rules=(), origin=1)
        h.deliver(task, src=1, tag=Tag.LEARN_RULE)
        sent = h.take_sent()
        assert sent[0].dst == 3
        assert type(sent[0].payload) is PipelineTask
        assert sent[0].payload.epoch == self.family.EPOCH
        assert sent[0].payload.rules == ()

    def test_width_caps_forwarded_rules(self, problem):
        task = first_stage_output(problem, self.family, width=1).payload
        assert len(task.rules) <= 1


class TestEvaluateAndMark:
    family = Plain

    def test_evaluate_replies_in_order(self, problem):
        from repro.logic.parser import parse_clause

        h = make_loaded_worker(problem, rank=1)
        rules = tuple(parse_clause(r) for r in RULES)
        h.deliver(self.family.evaluate(rules), src=0, tag=Tag.EVALUATE)
        sent = h.take_sent()
        assert len(sent) == 1
        res = sent[0].payload
        assert type(res) is EvaluateResult and res.round == self.family.ROUND
        assert sent[0].dst == MASTER_RANK
        assert res.rank == 1
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


class TestStartPipelineHealing(TestStartPipeline):
    family = Healing

    def test_same_task_as_the_plain_family_plus_the_epoch(self, problem):
        plain = first_stage_output(problem, Plain).payload
        healing = first_stage_output(problem, Healing).payload
        assert healing.epoch == Healing.EPOCH
        assert (healing.bottom, healing.step, healing.width, healing.rules, healing.origin) == (
            plain.bottom, plain.step, plain.width, plain.rules, plain.origin
        )

    def test_duplicate_restart_reuses_the_epochs_draw(self, problem):
        """A reissued stamped start re-emits the identical stage-1 output
        without a second seed draw; the next epoch draws again."""
        h = make_loaded_worker(problem, rank=1)
        shard = h.worker.shards[1]
        h.deliver(Healing.start(5, 1), src=0, tag=Tag.START_PIPELINE)
        first = h.take_sent()
        assert bin(shard.tried_mask).count("1") == 1
        h.deliver(Healing.start(5, 1), src=0, tag=Tag.START_PIPELINE)
        assert h.take_sent() == first
        assert bin(shard.tried_mask).count("1") == 1
        h.deliver(StartPipeline(width=5, origin=1, epoch=Healing.EPOCH + 1), src=0,
                  tag=Tag.START_PIPELINE)
        assert bin(shard.tried_mask).count("1") == 2


class TestPipelineStageHealing(TestPipelineStage):
    family = Healing

    def test_same_rules_out_for_the_same_rules_in(self, problem):
        out = {}
        for family in (Plain, Healing):
            task = first_stage_output(problem, family).payload
            h = make_loaded_worker(problem, rank=2)
            h.deliver(task, src=1, tag=Tag.LEARN_RULE)
            (op,) = h.take_sent()
            assert op.dst == 3 and op.payload.step == 3
            out[family] = op.payload
        assert out[Healing].epoch == Healing.EPOCH
        assert out[Healing].rules == out[Plain].rules

    def _adopt(self, virtual_rank):
        return AdoptWorker(
            virtual_rank=virtual_rank, partition_id=virtual_rank, epoch=Healing.EPOCH,
            completed=(), current=(),
        )

    def test_cohosted_successor_stage_is_handed_over_in_memory(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(self._adopt(2), src=0, tag=Tag.LOAD_EXAMPLES)
        h.computed.clear()
        h.deliver(Healing.start(5, 1), src=0, tag=Tag.START_PIPELINE)
        (op,) = h.take_sent()  # stages 1 and 2 ran here; only stage 3 travels
        assert (op.dst, op.tag, op.payload.step) == (3, Tag.LEARN_RULE, 3)
        labels = [c.label for c in h.computed]
        assert labels == ["saturate", "search(s1)", "search(s2)"]

    def test_task_for_a_shard_not_yet_adopted_is_parked_then_served(self, problem):
        task = first_stage_output(problem, Healing).payload  # stage 2 of pipeline 1
        h = make_loaded_worker(problem, rank=1)
        h.deliver(UpdateRouting(routing=((1, 1), (2, 1), (3, 3))), src=0, tag=Tag.ROUTING)
        h.deliver(task, src=1, tag=Tag.LEARN_RULE)
        assert h.take_sent() == []
        assert not any(c.label.startswith("search") for c in h.computed)
        h.deliver(self._adopt(2), src=0, tag=Tag.LOAD_EXAMPLES)
        (op,) = h.take_sent()
        assert (op.dst, op.tag, op.payload.step) == (3, Tag.LEARN_RULE, 3)
        assert [c.label for c in h.computed][-2:] == ["recover", "search(s2)"]

    def test_task_for_a_shard_routed_elsewhere_is_forwarded_unchanged(self, problem):
        task = first_stage_output(problem, Healing).payload
        h = make_loaded_worker(problem, rank=1)
        h.computed.clear()
        h.deliver(task, src=3, tag=Tag.LEARN_RULE)
        (op,) = h.take_sent()
        assert (op.dst, op.tag) == (2, Tag.LEARN_RULE)
        assert op.payload is task
        assert h.computed == []


class TestEvaluateHealing:
    family = Healing
    test_evaluate_replies_in_order = TestEvaluateAndMark.test_evaluate_replies_in_order

    def test_same_stats_as_the_plain_family_plus_the_round(self, problem):
        from repro.logic.parser import parse_clause

        rules = tuple(parse_clause(r) for r in RULES)
        out = {}
        for family in (Plain, Healing):
            h = make_loaded_worker(problem, rank=1)
            h.deliver(family.evaluate(rules), src=0, tag=Tag.EVALUATE)
            (op,) = h.take_sent()
            out[family] = op.payload
        assert out[Plain].round is None
        assert out[Healing] == replace(out[Plain], round=Healing.ROUND)


class TestStop:
    def test_stop_terminates(self, problem):
        h = make_loaded_worker(problem, rank=1)
        h.deliver(Stop(), src=0, tag=Tag.STOP)
        assert h.stopped
