"""P²-MDIE master process (paper Fig. 5).

Per epoch the master:

1. starts ``p`` pipelines, one rooted at each worker (lines 6-8);
2. collects the ``p`` pipelines' final rule sets into ``RulesBag``
   (line 9);
3. globally evaluates the bag (broadcast ``evaluate`` / gather results,
   lines 10-11);
4. greedily consumes the bag (lines 12-22): accept the globally best rule,
   broadcast ``mark_covered``, re-evaluate the remainder, drop rules that
   are no longer good.

Epochs repeat until every positive example is covered or learning stalls
(no pipeline produced an acceptable rule for ``stall_limit`` consecutive
epochs — the paper's generic "stopping condition").

Fault tolerance: when a :class:`~repro.fault.plan.FaultPlan` is active
the master runs the same algorithm through the self-healing collectives
of :class:`~repro.fault.recovery.FTMasterMixin` — timed receives,
heartbeat probes, adoption of dead hosts' logical workers, idempotent
reissue of lost pipelines/evaluations — and stamps every pipeline and
evaluation round so stale traffic from de-zombied hosts is discarded.
With no plan the historical protocol runs byte-for-byte unchanged.
Checkpoints (when enabled) are written at epoch boundaries on either
path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.message import Tag
from repro.cluster.process import ProcContext, SimProcess
from repro.fault.plan import FaultPlan
from repro.fault.recovery import FTMasterMixin, PoolSupervisor
from repro.ilp.config import ILPConfig
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.prune import ClauseBag
from repro.logic.clause import Clause, Theory
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    ExamplesReport,
    GatherExamples,
    LoadExamples,
    MarkCovered,
    PipelineRules,
    Repartition,
    SampledEvaluateRequest,
    SampledEvaluateResult,
    StartPipeline,
    Stop,
    per_worker_evaluate_requests,
    record_candidate_masks,
)
from repro.util.rng import make_rng

__all__ = ["P2Master", "EpochLog", "drop_not_good", "pick_best", "consume_bag"]


def drop_not_good(bag: "ClauseBag", stats: dict, config: ILPConfig) -> None:
    """Fig. 5 lines 20-21: discard rules that stopped being good.

    Shared by every master that consumes a rule bag — the filter and the
    tie-break below are parity-critical (golden tests pin bit-identical
    theories), so they live in exactly one place.
    """
    for clause in bag:
        p, n = stats[clause]
        if not is_good(p, n, config):
            bag.discard(clause)


def pick_best(bag: "ClauseBag", stats: dict, config: ILPConfig) -> Clause:
    """Fig. 5 line 13: best rule by global-coverage heuristic."""

    def key(clause: Clause):
        p, n = stats[clause]
        s = score_rule(p, n, len(clause.body) + 1, config)
        return (-s, len(clause.body), str(clause))

    return min(bag, key=key)


def consume_bag(master, ctx: ProcContext, bag: ClauseBag, log: EpochLog, evaluate):
    """Fig. 5 lines 10-22: evaluate, filter, then greedily consume a bag.

    One implementation for every master and both protocol flavours —
    ``evaluate(ctx, clauses)`` is the strategy's evaluation round
    (fault-free ``_global_eval`` or the self-healing ``_ft_eval_round``).
    Mutates ``master.theory``/``master.remaining`` and the epoch log.
    """
    clauses = bag.clauses()
    totals = yield from evaluate(ctx, clauses)
    stats = dict(zip(clauses, totals))
    drop_not_good(bag, stats, master.config)
    while bag:
        best = pick_best(bag, stats, master.config)
        bag.discard(best)
        master.theory.add(best)
        # Sampled runs certify every acceptance (masters without the hook
        # — the covering baselines — are untouched).
        record = getattr(master, "_record_certificate", None)
        if record is not None:
            record(best, stats[best])
        log.accepted.append(best)
        covered = stats[best][0]
        log.pos_covered += covered
        master.remaining -= covered
        dsts = master.ft.serving_hosts() if master.ft is not None else master._workers()
        yield ctx.bcast(MarkCovered(rule=best), tag=Tag.MARK_COVERED, dsts=dsts)
        if not bag:
            break
        clauses = bag.clauses()
        totals = yield from evaluate(ctx, clauses)
        stats = dict(zip(clauses, totals))
        drop_not_good(bag, stats, master.config)


@dataclass
class EpochLog:
    """Per-epoch bookkeeping (drives Tables 3-5 and the trace figure)."""

    epoch: int
    bag_size: int
    accepted: list[Clause] = field(default_factory=list)
    pos_covered: int = 0
    #: aggregate worker evaluation-cache counters at epoch end (collected
    #: by the fault-tolerance heartbeat; None on the fault-free path,
    #: whose wire protocol predates — and must stay identical to — them).
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None


class P2Master(FTMasterMixin, SimProcess):
    """Rank-0 master driving the worker ring."""

    def __init__(
        self,
        n_workers: int,
        total_pos: int,
        config: ILPConfig,
        width: Optional[int] = ...,
        max_epochs: Optional[int] = None,
        stall_limit: int = 3,
        repartition_each_epoch: bool = False,
        seed: int = 0,
        ship_data: Optional[list] = None,
        fault_plan: Optional[FaultPlan] = None,
        spares: int = 0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_meta: tuple = (),
        resume=None,
    ):
        super().__init__(0)
        self.n_workers = n_workers
        self.total_pos = total_pos
        self.config = config
        self.width = config.pipeline_width if width is ... else width
        self.max_epochs = max_epochs
        self.stall_limit = stall_limit
        #: §4.1's rejected alternative, implemented so its cost is
        #: measurable: reshuffle the remaining examples over the workers
        #: before every epoch after the first.
        self.repartition_each_epoch = repartition_each_epoch
        self.seed = seed
        #: when set (no shared filesystem), a list of per-worker LoadData
        #: payloads to ship instead of LoadExamples notifications (§4.1).
        self.ship_data = ship_data
        # fault tolerance & checkpointing (repro.fault):
        self.fault_plan = fault_plan
        self.ft: Optional[PoolSupervisor] = (
            PoolSupervisor(n_workers, spares=spares, timeout=fault_plan.timeout)
            if fault_plan is not None
            else None
        )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_meta = tuple(checkpoint_meta)
        self.fault_events: list[str] = []
        self._ft_current_log: Optional[EpochLog] = None
        # outputs, populated by run():
        self.theory = Theory()
        self.epoch_logs: list[EpochLog] = []
        self.remaining: int = total_pos
        self._stall0 = 0
        self._resume = resume
        if resume is not None:
            from repro.fault.checkpoint import epoch_logs_from_records, verify_config

            verify_config(resume, config.signature())
            self.theory = Theory(resume.theory)
            self.epoch_logs = epoch_logs_from_records(resume.epoch_logs)
            self.remaining = resume.remaining
            self._stall0 = resume.stall
        # coverage-inheritance bookkeeping: rank -> {clause ->
        # (pos_cand, neg_cand)} local candidate masks reported by each
        # worker (lineage itself is structural: parent = body minus the
        # appended last literal).
        self._worker_cand: dict[int, dict[Clause, tuple[int, int]]] = {}
        # sampled-coverage mode (resolved once here so the decision
        # travels with the pickled master to real backends, whatever the
        # remote environment says):
        self._sampling = config.sampling_enabled()
        #: clause -> pooled SampledStats of the latest screening round.
        self._sample_est: dict = {}
        #: per-rank strata rows recorded on first contact.
        self._sample_strata: dict[int, tuple] = {}
        self._cert_entries: list = []
        #: sampled-run exactness certificate (None on the reference path).
        self.certificate = None

    @property
    def epochs(self) -> int:
        return len(self.epoch_logs)

    def _workers(self) -> list[int]:
        return list(range(1, self.n_workers + 1))

    # -- checkpointing -----------------------------------------------------------
    def _resume_payload(self, rank: int) -> AdoptWorker:
        """Initial load of a resumed run: history instead of a blank slate.

        At an epoch boundary (no epoch in progress) the adoption payload
        of the self-healing protocol is exactly the resume payload — the
        resume loader *is* the adoption machinery.
        """
        return self._ft_adopt_payload(rank)

    def _write_checkpoint(self, stall: int) -> None:
        if self.checkpoint_dir is None:
            return
        from repro.fault.checkpoint import (
            CHECKPOINT_VERSION,
            CheckpointState,
            checkpoint_path,
            records_from_epoch_logs,
            save_checkpoint,
        )

        os.makedirs(self.checkpoint_dir, exist_ok=True)
        state = CheckpointState(
            version=CHECKPOINT_VERSION,
            algo="p2mdie",
            seed=self.seed,
            n_workers=self.n_workers,
            total_pos=self.total_pos,
            epoch=self.epochs,
            remaining=max(self.remaining, 0),
            stall=stall,
            theory=tuple(self.theory),
            epoch_logs=records_from_epoch_logs(self.epoch_logs),
            config_sig=self.config.signature(),
            meta=self.checkpoint_meta,
        )
        save_checkpoint(checkpoint_path(self.checkpoint_dir, self.epochs), state)

    # -- global evaluation round (Fig. 5 lines 10-11 / 18-19) --------------------
    def _global_eval(self, ctx: ProcContext, clauses: list[Clause]):
        """One evaluation round: exact, or sampled screen + exact on the
        survivors when ``coverage_sampling`` is on.

        The sampled flavour broadcasts a :class:`SampledEvaluateRequest`
        (workers score the bag on their local per-shard strata — masks
        never ship, both sides derive them from the run seed), pools the
        per-rule sampled stats, and sends the plausibly-good survivors
        through a normal exact round.  Screened-out rules report their
        *optimistic bounds* as totals, so the shared bag-consumption
        filter (:func:`drop_not_good`) discards exactly the rules the
        sample confidently ruled out — and anything that can be accepted
        was measured exactly.
        """
        if not self._sampling:
            totals = yield from self._exact_eval(ctx, clauses)
            return totals
        rules = tuple(clauses)
        yield ctx.bcast(SampledEvaluateRequest(rules=rules), tag=Tag.EVALUATE, dsts=self._workers())
        pooled: list = [None] * len(rules)
        for _ in self._workers():
            msg = yield ctx.recv(tag=Tag.RESULT)
            res: SampledEvaluateResult = msg.payload
            if res.rank not in self._sample_strata and res.stats:
                s0 = res.stats[0]
                self._sample_strata[res.rank] = (
                    (f"pos@r{res.rank}", s0.pos_n, s0.pos_total),
                    (f"neg@r{res.rank}", s0.neg_n, s0.neg_total),
                )
            for i, ss in enumerate(res.stats):
                pooled[i] = ss if pooled[i] is None else pooled[i].merged(ss)
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        delta = self.config.sample_delta
        survivors = [c for c, ss in zip(clauses, pooled) if ss.maybe_good(self.config)]
        for c, ss in zip(clauses, pooled):
            self._sample_est[c] = ss
        exact: dict = {}
        if survivors:
            ex_totals = yield from self._exact_eval(ctx, survivors)
            exact = dict(zip(survivors, ex_totals))
        out = []
        for c, ss in zip(clauses, pooled):
            if c in exact:
                out.append(exact[c])
            else:
                out.append((ss.pos_upper(delta), ss.neg_lower(delta)))
        return out

    def _exact_eval(self, ctx: ProcContext, clauses: list[Clause]):
        """Broadcast evaluate(); gather and sum per-worker stats.

        With coverage inheritance, when the master knows a worker's local
        candidate masks for a rule's parent (reported in an earlier
        round), it ships them back so the worker narrows its
        re-evaluation even on a cold cache — at the price of per-worker
        (rather than broadcast) requests.
        """
        rules = tuple(clauses)
        parents = tuple(Clause(c.head, c.body[:-1]) if c.body else None for c in clauses)
        requests = per_worker_evaluate_requests(rules, parents, self._workers(), self._worker_cand)
        if requests is None:
            yield ctx.bcast(EvaluateRequest(rules=rules), tag=Tag.EVALUATE, dsts=self._workers())
        else:
            for k, req in requests.items():
                yield ctx.send(k, req, tag=Tag.EVALUATE)
        totals = [[0, 0] for _ in clauses]
        for _ in self._workers():
            msg = yield ctx.recv(tag=Tag.RESULT)
            res: EvaluateResult = msg.payload
            record_candidate_masks(self._worker_cand, clauses, res)
            for i, rs in enumerate(res.stats):
                totals[i][0] += rs.pos
                totals[i][1] += rs.neg
        # Aggregation cost is linear in bag size.
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        return [(p, n) for p, n in totals]

    # -- sampled-run certification ------------------------------------------------
    def _record_certificate(self, best: Clause, totals: tuple) -> None:
        """Record one acceptance's sampled-vs-exact agreement.

        Called by :func:`consume_bag` right after ``theory.add``.  On the
        fault-tolerant path no screen runs (``_ft_eval_round`` is always
        exact), so entries there are ``deferred``.
        """
        if not self._sampling:
            return
        from repro.ilp.sampling import clause_certificate

        self._cert_entries.append(
            clause_certificate(best, self._sample_est.get(best), totals[0], totals[1], self.config)
        )

    def _build_certificate(self) -> None:
        if not self._sampling:
            return
        from repro.ilp.sampling import CoverageCertificate

        strata = tuple(
            row for rank in sorted(self._sample_strata) for row in self._sample_strata[rank]
        )
        self.certificate = CoverageCertificate(
            seed=self.seed,
            fraction=self.config.sample_fraction,
            delta=self.config.sample_delta,
            min_stratum=self.config.sample_min,
            strata=strata,
            entries=tuple(self._cert_entries),
        )

    # -- process body ----------------------------------------------------------------
    def run(self, ctx: ProcContext):
        if self.ft is not None:
            yield from self._run_ft(ctx)
            return
        # Fig. 5 line 3: broadcast load_examples (partition id == rank), or
        # ship the data itself when no shared filesystem is assumed.  A
        # resumed run ships the accepted-rule history for replay instead.
        for k in self._workers():
            if self._resume is not None:
                yield ctx.send(k, self._resume_payload(k), tag=Tag.LOAD_EXAMPLES)
            elif self.ship_data is not None:
                yield ctx.send(k, self.ship_data[k - 1], tag=Tag.LOAD_EXAMPLES)
            else:
                yield ctx.send(k, LoadExamples(partition_id=k), tag=Tag.LOAD_EXAMPLES)

        stall = self._stall0
        while self.remaining > 0:
            if self.max_epochs is not None and self.epochs >= self.max_epochs:
                break
            if self.repartition_each_epoch and self.epochs > 0:
                yield from self._repartition_round(ctx)
            log = EpochLog(epoch=self.epochs + 1, bag_size=0)
            # Masks only serve narrowing within this epoch's bag rounds;
            # dropping them per epoch bounds the master's memory.
            self._worker_cand.clear()

            # Lines 6-8: start p pipelines.
            for k in self._workers():
                yield ctx.send(k, StartPipeline(width=self.width), tag=Tag.START_PIPELINE)
            # Line 9: collect every pipeline's rules (renamed-apart
            # variants collapse to one bag slot via their variant key).
            bag = ClauseBag()
            for _ in self._workers():
                msg = yield ctx.recv(tag=Tag.RULES)
                rules: PipelineRules = msg.payload
                for sr in rules.rules:
                    bag.add(sr.clause)
            log.bag_size = bag.reported_size

            if bag:
                # Lines 10-22: evaluate and greedily consume the bag.
                yield from consume_bag(self, ctx, bag, log, self._global_eval)

            self.epoch_logs.append(log)
            if log.accepted:
                stall = 0
            else:
                stall += 1
            self._write_checkpoint(stall)
            if not log.accepted and stall >= self.stall_limit:
                break

        self._build_certificate()
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=self._workers())

    # -- fault-tolerant body ------------------------------------------------------
    def _ft_history(self):
        """Replay payload for adoptions at the current protocol point."""
        completed = tuple(tuple(log.accepted) for log in self.epoch_logs)
        log = self._ft_current_log
        if log is not None:
            # Mid-epoch: the lost worker had already drawn this epoch's
            # seed and applied the kills accepted so far.
            return (completed, tuple(log.accepted), True, True, log.epoch)
        return (completed, (), True, False, self.epochs)

    def _run_ft(self, ctx: ProcContext):
        """The same covering algorithm over self-healing collectives."""
        self._ft_init()
        for k in self._workers():
            if self._resume is not None:
                yield ctx.send(k, self._resume_payload(k), tag=Tag.LOAD_EXAMPLES)
            else:
                yield ctx.send(k, LoadExamples(partition_id=k), tag=Tag.LOAD_EXAMPLES)

        stall = self._stall0
        while self.remaining > 0:
            if self.max_epochs is not None and self.epochs >= self.max_epochs:
                break
            epoch = self.epochs + 1
            yield from self._ft_admit_joins(ctx, epoch)
            log = EpochLog(epoch=epoch, bag_size=0)
            self._ft_current_log = log

            rules_by_origin = yield from self._ft_pipeline_round(ctx, self.width, epoch)
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
            if log.accepted:
                stall = 0
            else:
                stall += 1
            self._write_checkpoint(stall)
            if not log.accepted and stall >= self.stall_limit:
                break

        # Stop every provisioned host — including declared-dead ones that
        # may in fact be alive (false positives keep running otherwise).
        self._build_certificate()
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=self.ft.hosts)

    # -- repartitioning extension (§4.1's rejected alternative) ------------------
    def _repartition_round(self, ctx: ProcContext):
        """Gather remaining examples, reshuffle, redistribute.

        This ships example terms over the network (no shared-FS shortcut
        mid-run) — precisely the communication the paper declined to pay.
        """
        from repro.parallel.partition import partition_examples

        yield ctx.bcast(GatherExamples(), tag=Tag.LOAD_EXAMPLES, dsts=self._workers())
        pos: list = []
        neg: list = []
        for _ in self._workers():
            msg = yield ctx.recv(tag=Tag.LOAD_EXAMPLES)
            report: ExamplesReport = msg.payload
            pos.extend(report.pos)
            neg.extend(report.neg)
        # Deterministic global ordering before the shuffle.
        pos.sort(key=str)
        neg.sort(key=str)
        rng = make_rng(self.seed, "repartition", self.epochs)
        parts = partition_examples(pos, neg, self.n_workers, rng)
        yield ctx.compute(len(pos) + len(neg) + 1, label="aggregate")
        # Candidate masks are in each worker's local example numbering;
        # repartitioning renumbers everything, so they all expire.
        self._worker_cand.clear()
        for k, part in zip(self._workers(), parts):
            yield ctx.send(k, Repartition(pos=part.pos, neg=part.neg), tag=Tag.LOAD_EXAMPLES)
