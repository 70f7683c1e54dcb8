"""Baseline: independent data-parallel learning (no pipelining).

The third strategy in the design space the paper situates itself in
(§6, Matsui et al.'s "data parallelism"): partition the examples, let
every worker run the *full sequential* covering algorithm on its own
subset with no communication at all, then merge.  The master unions the
local theories, evaluates them globally once, discards rules that are not
globally good, and greedily consumes the rest exactly like P²-MDIE's bag
consumption.

This isolates the value of the *pipeline*: independent learning has the
same data distribution and even less communication, but each rule only
ever saw one subset during search — the quality problem the paper's
rule-streaming is designed to fix ("training on small subsets of the
whole data might reduce the quality of learning").

Fault tolerance: the local covering loop is a pure function of
``(partition, seed, virtual rank)`` — it draws from a freshly derived RNG
stream — so a dead worker's entire contribution is reproducible on any
adopter, and the single merge epoch heals exactly like a P²-MDIE epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.backend import Backend, resolve_backend
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.message import Tag
from repro.cluster.network import FAST_ETHERNET, NetworkModel
from repro.cluster.process import ProcContext, SimProcess
from repro.fault.plan import FaultPlan
from repro.fault.recovery import FTMasterMixin, PoolSupervisor
from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.ilp.prune import ClauseBag
from repro.ilp.search import learn_rule
from repro.logic.clause import Clause, Theory
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.parallel.master import EpochLog, consume_bag
from repro.parallel.messages import (
    EvaluateRequest,
    EvaluateResult,
    FTPipelineRules,
    LoadExamples,
    PipelineRules,
    RestartPipeline,
    StartPipeline,
    Stop,
)
from repro.parallel.p2mdie import (
    P2Result,
    SharedProblem,
    _result_from_run,
    _validate_fault_args,
)
from repro.parallel.partition import partition_examples
from repro.parallel.worker import P2Worker
from repro.util.rng import make_rng

__all__ = ["IndependentWorker", "IndependentMaster", "run_independent"]


class IndependentWorker(P2Worker):
    """A worker whose 'pipeline' never leaves the node.

    Reuses every P2Worker task handler; only ``start_pipeline`` changes —
    instead of one stage of one pipeline, it runs a complete local
    covering loop (sequential MDIE on the local subset) and ships the
    resulting theory to the master.
    """

    def _local_covering(self, shard, width: Optional[int]) -> tuple:
        """Sequential MDIE on one shard's subset (Fig. 1 semantics).

        Draws from a freshly derived RNG stream, so the computation is a
        pure function of (partition, seed, virtual rank) — rerunnable on
        any host, any number of times, with identical output.
        """
        rng = make_rng(self.seed, "worker", shard.virtual_rank)
        store = shard.store
        local_rules = []
        failed = 0
        while True:
            candidates = store.alive & ~failed
            idxs = [i for i in range(store.n_pos) if (candidates >> i) & 1]
            if not idxs:
                break
            i = rng.choice(idxs) if self.config.select_seed_randomly else idxs[0]
            try:
                bottom = build_bottom_cached(store.pos[i], self.engine, self.modes, self.config)
            except SaturationError:
                failed |= 1 << i
                continue
            result = learn_rule(self.engine, bottom, store, self.config, width=1)
            if result.best is None:
                failed |= 1 << i
                continue
            local_rules.append(result.best.rule)
            store.kill(result.best.stats.pos_bits)
        # Local kills are provisional — restore liveness so the master's
        # global mark_covered drives the authoritative state.
        store.alive = (1 << store.n_pos) - 1
        if width is not None:
            local_rules = local_rules[:width]
        return tuple(local_rules)

    def _start_pipeline(self, ctx: ProcContext, width: Optional[int]):
        shard = self.shards[self.rank]
        ops0 = self.engine.total_ops
        local_rules = self._local_covering(shard, width)
        yield ctx.compute(self._ops_since(ops0), label="local_mdie")
        yield ctx.send(
            0, PipelineRules(origin=self.rank, rules=local_rules), tag=Tag.RULES
        )

    def _ft_restart(self, ctx: ProcContext, req: RestartPipeline):
        """Fault-tolerant start: run the hosted shard's local covering."""
        handled = yield from self._defer_or_forward(ctx, req.origin, req, Tag.START_PIPELINE)
        if handled:
            return
        shard = self.shards[req.origin]
        ops0 = self.engine.total_ops
        local_rules = self._local_covering(shard, req.width)
        yield ctx.compute(self._ops_since(ops0), label="local_mdie")
        yield ctx.send(
            0,
            FTPipelineRules(epoch=req.epoch, origin=req.origin, rules=local_rules),
            tag=Tag.RULES,
        )


class IndependentMaster(FTMasterMixin, SimProcess):
    """Union local theories, filter globally, consume greedily."""

    def __init__(
        self,
        n_workers: int,
        total_pos: int,
        config: ILPConfig,
        width=None,
        fault_plan: Optional[FaultPlan] = None,
        spares: int = 0,
    ):
        super().__init__(0)
        self.n_workers = n_workers
        self.total_pos = total_pos
        self.config = config
        self.width = width
        self.fault_plan = fault_plan
        self.ft: Optional[PoolSupervisor] = (
            PoolSupervisor(n_workers, spares=spares, timeout=fault_plan.timeout)
            if fault_plan is not None
            else None
        )
        self.fault_events: list[str] = []
        self._ft_current_log: Optional[EpochLog] = None
        self.theory = Theory()
        self.epoch_logs: list[EpochLog] = []
        self.remaining = total_pos

    @property
    def epochs(self) -> int:
        return len(self.epoch_logs)

    def _workers(self):
        return list(range(1, self.n_workers + 1))

    def _global_eval(self, ctx, clauses):
        yield ctx.bcast(EvaluateRequest(rules=tuple(clauses)), tag=Tag.EVALUATE, dsts=self._workers())
        totals = [[0, 0] for _ in clauses]
        for _ in self._workers():
            msg = yield ctx.recv(tag=Tag.RESULT)
            res: EvaluateResult = msg.payload
            for i, rs in enumerate(res.stats):
                totals[i][0] += rs.pos
                totals[i][1] += rs.neg
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        return totals

    def run(self, ctx: ProcContext):
        if self.ft is not None:
            yield from self._run_ft(ctx)
            return
        for k in self._workers():
            yield ctx.send(k, LoadExamples(partition_id=k), tag=Tag.LOAD_EXAMPLES)
        for k in self._workers():
            yield ctx.send(k, StartPipeline(width=self.width), tag=Tag.START_PIPELINE)
        bag = ClauseBag()
        for _ in self._workers():
            msg = yield ctx.recv(tag=Tag.RULES)
            for sr in msg.payload.rules:
                bag.add(sr.clause)
        log = EpochLog(epoch=1, bag_size=bag.reported_size)

        if bag:
            yield from consume_bag(self, ctx, bag, log, self._global_eval)
        self.epoch_logs.append(log)
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=self._workers())

    # -- fault-tolerant body ------------------------------------------------------
    def _ft_history(self):
        current = self._ft_current_log.accepted if self._ft_current_log is not None else ()
        # Independent workers never draw pipeline seeds from the shared
        # stream — the local covering loop derives its own — so replay is
        # kills only.
        return ((), tuple(current), False, False, 1)

    def _run_ft(self, ctx: ProcContext):
        self._ft_init()
        for k in self._workers():
            yield ctx.send(k, LoadExamples(partition_id=k), tag=Tag.LOAD_EXAMPLES)
        log = EpochLog(epoch=1, bag_size=0)
        self._ft_current_log = log
        rules_by_origin = yield from self._ft_pipeline_round(ctx, self.width, 1)
        bag = ClauseBag()
        for origin in sorted(rules_by_origin):
            for sr in rules_by_origin[origin]:
                bag.add(sr.clause)
        log.bag_size = bag.reported_size
        if bag:
            yield from consume_bag(self, ctx, bag, log, self._ft_eval_round)
        self.epoch_logs.append(log)
        self._ft_current_log = None
        yield from self._ft_epoch_pulse(ctx, log)
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=self.ft.hosts)


def run_independent(
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: ModeSet,
    config: ILPConfig,
    p: int,
    width: Optional[int] = None,
    seed: int = 0,
    network: NetworkModel = FAST_ETHERNET,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    backend: Union[Backend, str, None] = None,
    fault_plan: Optional[FaultPlan] = None,
    spares: int = 0,
) -> P2Result:
    """Run the independent-learning baseline; same artifact type as
    :func:`repro.parallel.p2mdie.run_p2mdie` for direct comparison."""
    plan = _validate_fault_args(fault_plan, spares, p)
    rng = make_rng(seed, "partition")
    partitions = partition_examples(pos, neg, p, rng)
    shared = SharedProblem(kb, partitions, modes, config)
    master = IndependentMaster(
        n_workers=p,
        total_pos=len(pos),
        config=config,
        width=width,
        fault_plan=plan,
        spares=spares,
    )
    workers = [
        IndependentWorker(rank, shared, p, seed=seed) for rank in range(1, p + spares + 1)
    ]
    bk = resolve_backend(backend, network=network, cost_model=cost_model)
    run = bk.run([master, *workers], fault_plan=plan)
    return _result_from_run(run)
