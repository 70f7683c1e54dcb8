"""P²-MDIE worker process (paper Fig. 6 + Fig. 7).

Each worker owns one example partition (read from the simulated shared
filesystem on ``load_examples``) and serves four tasks:

* ``start_pipeline(w)`` — select a local seed, saturate it into ⊥e, run
  the first pipeline stage (``learn_rule'`` with an empty seed set);
* ``learn_rule'(⊥e, step, w, S)`` — continue a pipeline started
  elsewhere: re-evaluate the received rules locally, search onward from
  them, forward the best ``w`` to the next stage (or the master);
* ``evaluate(Rules)`` — local coverage stats for the master's rule bag;
* ``mark_covered(R)`` — retract locally covered positives.

All engine work between messages is charged to the worker's virtual clock
via ``ctx.compute`` with the engine's operation delta.

Fault tolerance (:mod:`repro.fault`) generalises "one worker = one
partition" to *hosting*: the per-partition learning state lives in a
:class:`~repro.fault.recovery.WorkerShard` (store, RNG stream, tried-seed
mask), and one physical worker process can host several shards — its own
plus any adopted from crashed peers, rebuilt deterministically by
replaying the master-shipped accepted-rule history.

One message and one handler per task, stamped under a fault plan.  A
plan-free run *is* the healing protocol with the identity routing table,
one shard per host and unstamped messages: every stage is served where it
lands, nothing is parked or forwarded, no successor stage is co-hosted.
The two runs differ only in the stamp — a handler's reply echoes its
request's epoch / round, or none; the bytes of each are pinned by a
witness of its own
(``tests/data/golden_runs.json``, ``tests/data/golden_healing.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.message import Tag
from repro.cluster.process import ProcContext, SimProcess
from repro.fault.recovery import WorkerShard, draw_seed, rebuild_shard, saturate_seed
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.ilp.search import learn_rule
from repro.ilp.store import ExampleStore
from repro.logic.engine import Engine
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    Ping,
    PipelineRules,
    PipelineTask,
    Pong,
    RuleStats,
    StartPipeline,
    Stop,
    UpdateRouting,
)
from repro.util.rng import make_rng

__all__ = ["P2Worker", "MASTER_RANK", "stage_logical"]

MASTER_RANK = 0


def stage_logical(origin: int, step: int, n_workers: int) -> int:
    """Logical worker serving stage ``step`` of the pipeline rooted at
    ``origin`` (the ring ``1 → 2 → ... → p → 1``)."""
    return (origin - 1 + step - 1) % n_workers + 1


@dataclass(frozen=True)
class WorkerCounters:
    """A worker's trip home (:meth:`P2Worker.final_state`): its rank and
    the answer of :meth:`P2Worker.cache_stats` when the run ended."""

    rank: int
    stats: dict

    def cache_stats(self) -> dict:
        return self.stats


class P2Worker(SimProcess):
    """One pipeline stage owner (physical host of one or more shards).

    ``shared`` is the simulated distributed filesystem
    (:class:`repro.parallel.p2mdie.SharedProblem`); ``n_workers`` fixes the
    pipeline ring ``1 → 2 → ... → p → 1``.  Ranks above ``n_workers`` are
    *spare hosts*: they idle until the fault-tolerant master assigns them
    work (adoption of a dead host's shards, or an elastic join).
    """

    def __init__(self, rank: int, shared, n_workers: int, seed: int = 0):
        super().__init__(rank)
        self.shared = shared
        self.n_workers = n_workers
        self.seed = seed
        # populated on load_examples / adoption:
        self.engine: Optional[Engine] = None
        self.config: Optional[ILPConfig] = None
        self.modes: Optional[ModeSet] = None
        #: hosted logical workers: virtual rank -> WorkerShard.
        self.shards: dict[int, WorkerShard] = {}
        #: logical -> physical routing table (identity unless the master
        #: rewires it after a recovery / elastic rebalance).
        self.routing: dict[int, int] = {}
        #: fault-protocol tasks that arrived before the shard they target
        #: was adopted here; drained after every adoption/rewiring.
        self._deferred: list = []

    @property
    def store(self) -> Optional[ExampleStore]:
        """The store of this worker's own shard (None before loading)."""
        shard = self.shards.get(self.rank)
        return shard.store if shard is not None else None

    def cache_stats(self) -> dict:
        """Hosted virtual rank -> (cache hits, cache misses) of its store."""
        return {
            vr: (shard.store.cache_hits(), shard.store.cache_misses())
            for vr, shard in self.shards.items()
        }

    def final_state(self) -> WorkerCounters:
        """Two integers per hosted shard — not the problem this worker was
        handed (``shared``: KB and partitions), its engine or its stores,
        which nothing reads after a run and cost ≥ 0.49 MB of pickle per
        worker on carcinogenesis-paper."""
        return WorkerCounters(self.rank, self.cache_stats())

    # -- helpers -----------------------------------------------------------------
    def _host_of(self, logical: int) -> int:
        return self.routing.get(logical, logical)

    def _hosted(self) -> list[WorkerShard]:
        return [self.shards[vr] for vr in sorted(self.shards)]

    def _ops_since(self, mark: int) -> int:
        return self.engine.total_ops - mark

    def _ensure_engine(self) -> None:
        """Spare hosts build their engine lazily, from the shared FS."""
        if self.engine is None:
            self.config = self.shared.config
            self.modes = self.shared.modes
            self.engine = self.config.make_engine(self.shared.kb)

    def _make_shard(self, virtual_rank: int, pos, neg) -> WorkerShard:
        store = ExampleStore(pos, neg)
        return WorkerShard(
            virtual_rank=virtual_rank,
            store=store,
            rng=make_rng(self.seed, "worker", virtual_rank),
        )

    # -- process body ----------------------------------------------------------------
    def run(self, ctx: ProcContext):
        if self.rank <= self.n_workers:
            # Fig. 6 load_examples(): the first message is always the
            # initial state (LoadExamples / AdoptWorker-resume)
            # — tag-filtered so in-flight peer traffic cannot overtake it
            # on real transports.
            msg = yield ctx.recv(tag=Tag.LOAD_EXAMPLES)
            yield from self._initial_load(ctx, msg.payload)
        # Spare hosts (rank > n_workers) go straight to the task loop and
        # acquire state through adoption.
        while True:
            msg = yield ctx.recv()
            payload = msg.payload
            if isinstance(payload, Stop):
                return
            yield from self._dispatch(ctx, payload)

    def _initial_load(self, ctx: ProcContext, payload):
        if isinstance(payload, AdoptWorker):
            # Checkpoint-resumed run: state is history + shared FS.
            self._ensure_engine()
            yield from self._adopt(ctx, payload)
            return
        problem = self.shared.worker_problem(payload.partition_id)
        self.config = problem.config
        self.modes = problem.modes
        self.engine = self.config.make_engine(problem.kb)
        self.shards[self.rank] = self._make_shard(self.rank, problem.pos, problem.neg)
        yield ctx.compute(len(problem.pos) + len(problem.neg), label="load")

    def _dispatch(self, ctx: ProcContext, payload):
        if isinstance(payload, StartPipeline):
            yield from self._start_pipeline(ctx, payload)
        elif isinstance(payload, PipelineTask):
            yield from self._pipeline_stage(ctx, payload)
        elif isinstance(payload, EvaluateRequest):
            yield from self._evaluate(ctx, payload)
        elif isinstance(payload, MarkCovered):
            yield from self._mark_covered(ctx, payload)
        elif isinstance(payload, Ping):
            yield from self._pong(ctx, payload)
        elif isinstance(payload, AdoptWorker):
            self._ensure_engine()
            yield from self._adopt(ctx, payload)
        elif isinstance(payload, UpdateRouting):
            yield from self._update_routing(ctx, payload)
        elif isinstance(payload, LoadExamples):
            yield from self._initial_load(ctx, payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"worker {self.rank}: unknown task {payload!r}")

    # -- paper tasks (Fig. 6) ---------------------------------------------------------
    def _start_pipeline(self, ctx: ProcContext, req: StartPipeline):
        """Fig. 6 start_pipeline: (re)start the pipeline rooted at a hosted
        logical worker — the receiving rank's own, unless stamped."""
        origin = self.rank if req.origin is None else req.origin
        if (yield from self._defer_or_forward(ctx, origin, req, Tag.START_PIPELINE)):
            return
        yield from self._first_stage(ctx, self.shards[origin], req.width, req.epoch)

    def _first_stage(self, ctx: ProcContext, shard: WorkerShard, width: Optional[int], epoch):
        """Seed, saturate, run the first ``learn_rule'`` stage.

        Idempotent per stamped epoch: the first request of an epoch draws
        the shard's seed; duplicates (recovery reissues) reuse the
        remembered draw and bottom clause, so the emitted stage-1 task is
        identical.  An unstamped request (``epoch`` None) always draws.
        """
        ops0 = self.engine.total_ops
        if epoch is None or shard.pending_epoch != epoch:
            shard.pending_epoch = epoch
            shard.pending_seed = draw_seed(shard)
            shard.bottom_ready = False
        bottom = saturate_seed(shard, self.engine, self.modes, self.config)
        yield ctx.compute(self._ops_since(ops0), label="saturate")
        task = PipelineTask(
            bottom=bottom, step=1, width=width, rules=(), origin=shard.virtual_rank, epoch=epoch
        )
        yield from self._pipeline_stage(ctx, task)

    def _pipeline_stage(self, ctx: ProcContext, task: PipelineTask):
        """Fig. 7 learn_rule': search locally, forward Good onward —
        executed by the logical stage owner wherever it is hosted."""
        logical = stage_logical(task.origin, task.step, self.n_workers)
        if (yield from self._defer_or_forward(ctx, logical, task, Tag.LEARN_RULE)):
            return
        shard = self.shards[logical]
        ops0 = self.engine.total_ops
        if task.bottom is None:
            good: tuple = task.rules
        else:
            result = learn_rule(
                self.engine,
                task.bottom,
                shard.store,
                self.config,
                seeds=task.rules or None,
                width=task.width,
            )
            good = tuple(er.rule for er in result.good)
        yield ctx.compute(self._ops_since(ops0), label=f"search(s{task.step})")
        if task.step >= self.n_workers:
            # Last stage: ship the pipeline's rules to the master.
            clauses = tuple(sr.clause for sr in good)
            rules = PipelineRules(origin=task.origin, rules=clauses, epoch=task.epoch)
            yield ctx.send(MASTER_RANK, rules, tag=Tag.RULES)
            return
        next_task = replace(task, step=task.step + 1, rules=good)
        dst = self._host_of(stage_logical(task.origin, task.step + 1, self.n_workers))
        if dst == self.rank:
            # Co-hosted successor stage: hand the token over in memory —
            # co-located logical workers don't pay (or get charged for)
            # the network.
            yield from self._pipeline_stage(ctx, next_task)
        else:
            yield ctx.send(dst, next_task, tag=Tag.LEARN_RULE)

    def _evaluate(self, ctx: ProcContext, req: EvaluateRequest):
        """Fig. 6 evaluate_rules: stats of each bag rule on every hosted
        shard, one reply per shard, stamped with the request's round.

        Coverage inheritance narrows the work: the store finds each
        rule's lattice parent (refinement appends literals) by its key's
        prefix and tests only what that parent's cached entry leaves open.
        """
        ops0 = self.engine.total_ops
        results = []
        for shard in self._hosted():
            stats = []
            for rule in req.rules:
                cs = shard.store.evaluate(self.engine, rule)
                stats.append(RuleStats(pos=cs.pos, neg=cs.neg))
            results.append((shard.virtual_rank, tuple(stats)))
        yield ctx.compute(self._ops_since(ops0), label="evaluate")
        for virtual_rank, stats in results:
            reply = EvaluateResult(rank=virtual_rank, stats=stats, round=req.round)
            yield ctx.send(MASTER_RANK, reply, tag=Tag.RESULT)

    def _mark_covered(self, ctx: ProcContext, req: MarkCovered):
        """Fig. 6 mark_covered: retract positives the accepted rule covers
        (on every hosted shard)."""
        ops0 = self.engine.total_ops
        for shard in self._hosted():
            cs = shard.store.evaluate(self.engine, req.rule)
            shard.store.kill(cs.pos_bits)
            # Seeds that were covered no longer need the tried-mark;
            # keeping the mask aligned with `alive` lets future epochs
            # retry only genuinely new ground.
            shard.tried_mask &= shard.store.alive
        yield ctx.compute(self._ops_since(ops0), label="mark_covered")

    # -- fault-tolerance protocol ---------------------------------------------------
    def _pong(self, ctx: ProcContext, ping: Ping):
        """Heartbeat reply, carrying aggregate evaluation-cache counters."""
        hits = sum(s.store.cache_hits() for s in self._hosted())
        misses = sum(s.store.cache_misses() for s in self._hosted())
        yield ctx.send(
            MASTER_RANK,
            Pong(rank=self.rank, token=ping.token, cache_hits=hits, cache_misses=misses),
            tag=Tag.PONG,
        )

    def _adopt(self, ctx: ProcContext, msg: AdoptWorker):
        """Rebuild a logical worker here by deterministic replay.

        Idempotent: a duplicate request for an already-hosted shard (the
        master reinforces adoption state when collectives stall, e.g.
        after the original AdoptWorker was lost) is a no-op — the hosted
        shard is never behind the replayed state.
        """
        if msg.virtual_rank in self.shards:
            self.routing[msg.virtual_rank] = self.rank
            yield from self._drain_deferred(ctx)
            return
        part = self.shared.partitions[msg.partition_id - 1]
        ops0 = self.engine.total_ops
        shard = rebuild_shard(msg, part, self.engine, self.seed)
        self.shards[msg.virtual_rank] = shard
        self.routing[msg.virtual_rank] = self.rank
        yield ctx.compute(self._ops_since(ops0) + shard.store.n_pos + shard.store.n_neg, label="recover")
        yield from self._drain_deferred(ctx)

    def _update_routing(self, ctx: ProcContext, msg: UpdateRouting):
        self.routing = dict(msg.routing)
        # Elastic shrink of this host's share: drop shards routed away.
        for vr in list(self.shards):
            if self.routing.get(vr, vr) != self.rank:
                del self.shards[vr]
        yield from self._drain_deferred(ctx)

    def _drain_deferred(self, ctx: ProcContext):
        pending, self._deferred = self._deferred, []
        for payload in pending:
            yield from self._dispatch(ctx, payload)

    def _defer_or_forward(self, ctx: ProcContext, logical: int, payload, tag: str) -> bool:
        """Route a shard-addressed task we cannot serve.  Returns True if
        the payload was handled (forwarded or deferred)."""
        if logical in self.shards:
            return False
        dst = self._host_of(logical)
        if dst != self.rank:
            yield ctx.send(dst, payload, tag=tag)
        else:
            # Routed to us but not adopted yet: park until the
            # AdoptWorker (in flight behind us on the master link) lands.
            self._deferred.append(payload)
        return True
