"""Protocol-level unit tests for P2Master, mirroring the worker harness:
drive the master generator by hand and check the Fig. 5 message sequence.
"""

import pytest

from repro.cluster.message import Message, Tag, payload_nbytes
from repro.cluster.process import BcastOp, ComputeOp, ProcContext, RecvOp, SendOp
from repro.ilp.config import ILPConfig
from repro.logic.parser import parse_clause
from repro.parallel.master import P2Master
from repro.parallel.messages import (
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    PipelineRules,
    RuleStats,
    StartPipeline,
    Stop,
)


class MasterHarness:
    def __init__(self, master: P2Master):
        self.master = master
        ctx = ProcContext(0, master.n_workers + 1)
        self.gen = master.run(ctx)
        self.sent: list[SendOp] = []
        self.done = False
        self._advance(None)

    def _advance(self, value):
        try:
            op = self.gen.send(value)
        except StopIteration:
            self.done = True
            return
        while True:
            if isinstance(op, RecvOp):
                self.waiting = op
                return
            if isinstance(op, SendOp):
                self.sent.append(op)
            elif isinstance(op, BcastOp):
                for dst in op.dsts:
                    self.sent.append(SendOp(dst, op.payload, op.tag))
            elif not isinstance(op, ComputeOp):  # pragma: no cover
                raise TypeError(op)
            try:
                op = self.gen.send(None)
            except StopIteration:
                self.done = True
                return

    def deliver(self, payload, src, tag):
        msg = Message(
            src=src, dst=0, tag=tag, payload=payload,
            nbytes=payload_nbytes(payload), send_time=0.0, arrival_time=0.0, seq=0,
        )
        self._advance(msg)

    def take_sent(self):
        out, self.sent = self.sent, []
        return out


RULE = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
BAD_RULE = parse_clause("daughter(A, B) :- parent(B, A).")


@pytest.fixture
def master():
    cfg = ILPConfig(min_pos=1, noise=0, max_clause_length=3)
    return P2Master(n_workers=2, total_pos=6, config=cfg, width=10)


class TestStartup:
    def test_load_then_start(self, master):
        h = MasterHarness(master)
        sent = h.take_sent()
        loads = [s for s in sent if isinstance(s.payload, LoadExamples)]
        starts = [s for s in sent if isinstance(s.payload, StartPipeline)]
        assert [s.dst for s in loads] == [1, 2]
        assert [s.dst for s in starts] == [1, 2]
        assert all(s.payload.width == 10 for s in starts)
        assert isinstance(h.waiting, RecvOp)
        assert h.waiting.tag == Tag.RULES


class TestEpoch:
    def _run_one_epoch(self, master, rules, local_stats):
        """Feed one epoch: two PipelineRules, then evaluate replies."""
        h = MasterHarness(master)
        h.take_sent()
        h.deliver(PipelineRules(origin=1, rules=rules), src=1, tag=Tag.RULES)
        h.deliver(PipelineRules(origin=2, rules=()), src=2, tag=Tag.RULES)
        # master broadcast evaluate; answer it
        sent = h.take_sent()
        evals = [s for s in sent if isinstance(s.payload, EvaluateRequest)]
        assert len(evals) == 2
        order = evals[0].payload.rules
        stats = tuple(RuleStats(*local_stats[c]) for c in order)
        h.deliver(EvaluateResult(rank=1, stats=stats), src=1, tag=Tag.RESULT)
        h.deliver(EvaluateResult(rank=2, stats=stats), src=2, tag=Tag.RESULT)
        return h

    def test_good_rule_accepted_and_marked(self, master):
        h = self._run_one_epoch(master, (RULE,), {RULE: (3, 0)})
        sent = h.take_sent()
        marks = [s for s in sent if isinstance(s.payload, MarkCovered)]
        assert len(marks) == 2  # broadcast to both workers
        assert marks[0].payload.rule == RULE
        assert list(master.theory) == [RULE]
        assert master.remaining == 6 - 6  # 3 pos per worker, summed

    def test_bad_rule_dropped(self, master):
        h = self._run_one_epoch(master, (BAD_RULE,), {BAD_RULE: (3, 5)})  # too many negs
        sent = h.take_sent()
        assert not [s for s in sent if isinstance(s.payload, MarkCovered)]
        assert len(master.theory) == 0

    def test_empty_bags_stall_then_stop(self, master):
        h = MasterHarness(master)
        h.take_sent()
        for _ in range(master.STALL_LIMIT):
            h.deliver(PipelineRules(origin=1, rules=()), src=1, tag=Tag.RULES)
            h.deliver(PipelineRules(origin=2, rules=()), src=2, tag=Tag.RULES)
        sent = h.take_sent()
        stops = [s for s in sent if isinstance(s.payload, Stop)]
        assert len(stops) == 2
        assert h.done
        assert master.epochs == master.STALL_LIMIT
