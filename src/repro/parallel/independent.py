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

from typing import Optional, Sequence, Union

from repro.backend import Backend
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.message import Tag
from repro.cluster.network import FAST_ETHERNET, NetworkModel
from repro.cluster.process import ProcContext
from repro.fault.plan import FaultPlan
from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.config import ILPConfig
from repro.ilp.mdie import select_seed
from repro.ilp.modes import ModeSet
from repro.ilp.search import learn_rule
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.parallel.master import Master
from repro.parallel.p2mdie import P2Result, SharedProblem, _launch, _validate_fault_args
from repro.parallel.messages import PipelineRules
from repro.parallel.worker import MASTER_RANK, P2Worker
from repro.util.rng import make_rng

__all__ = ["IndependentWorker", "IndependentMaster", "run_independent"]


class IndependentWorker(P2Worker):
    """A worker whose 'pipeline' never leaves the node.

    Reuses every P2Worker task handler; only the first stage changes —
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
            i = select_seed(store.alive & ~failed, rng)
            if i is None:
                break
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

    def _first_stage(self, ctx: ProcContext, shard, width: Optional[int], epoch):
        ops0 = self.engine.total_ops
        local_rules = self._local_covering(shard, width)
        yield ctx.compute(self._ops_since(ops0), label="local_mdie")
        rules = PipelineRules(origin=shard.virtual_rank, rules=local_rules, epoch=epoch)
        yield ctx.send(MASTER_RANK, rules, tag=Tag.RULES)


class IndependentMaster(Master):
    """Union local theories, filter globally, consume greedily.

    One epoch, so there is no boundary at which a join could be admitted
    and nothing to checkpoint.  Evaluation rounds never echo candidate
    masks (always a plain broadcast).
    """

    def __init__(
        self,
        n_workers: int,
        total_pos: int,
        config: ILPConfig,
        width=None,
        fault_plan: Optional[FaultPlan] = None,
        spares: int = 0,
    ):
        super().__init__(n_workers, total_pos, config, fault_plan=fault_plan, spares=spares)
        self.width = width

    def run(self, ctx: ProcContext):
        yield from self._load(ctx)
        log = self._open_epoch()
        bag = yield from self._pipeline_round(ctx, self.width, log)
        yield from self._consume_bag(ctx, bag, log)
        yield from self._end_epoch(ctx, log)
        yield from self._stop(ctx)


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
    plan = _validate_fault_args("independent", fault_plan, spares, p)
    shared = SharedProblem.partitioned(kb, pos, neg, modes, config, p, seed)
    master = IndependentMaster(
        n_workers=p,
        total_pos=len(pos),
        config=config,
        width=width,
        fault_plan=plan,
        spares=spares,
    )
    return _launch(
        master, IndependentWorker, shared, spares, seed, backend, network=network, cost_model=cost_model
    )
