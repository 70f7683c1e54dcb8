"""Baseline: data-parallel *coverage testing* (related work, paper §6).

The strategy of Graham et al. [14] and Konstantopoulos [19]: a single
master runs the ordinary sequential MDIE search, but each candidate rule's
coverage is computed by the workers on their example partitions and summed
by the master.  The search itself is not parallelised — only
``evalOnExamples`` is.

The task granularity is controlled by ``batch_size``: 1 rule per round is
Konstantopoulos' fine-grained variant (one latency-bound round trip per
candidate — the paper attributes his "poor results" to exactly this);
larger batches approximate Graham et al.  This baseline exists so the
benchmark suite can reproduce the §6 comparison: p²-mdie's medium/high
granularity vs. fine-grained coverage-parallelism.

Workers are the unchanged :class:`~repro.parallel.worker.P2Worker` — the
baseline master simply never sends ``start_pipeline``/``learn_rule'``
tasks, only ``evaluate`` and ``mark_covered``.  Under a fault plan the
evaluation rounds run through the self-healing collectives instead, and
the master checkpoints its search state (seed-pool masks + RNG) at epoch
boundaries so ``repro resume`` continues it bit-identically.

The same partitioned-coverage idea resurfaces at *query* time in the
service layer: :func:`repro.parallel.partition.shard_spans` splits a
query batch into contiguous spans and
:func:`repro.ilp.coverage.theory_covered_bits` evaluates the spans one
after another on the theory's engine — see ``repro.service.query``
(there the split buys granularity, not parallelism).  Learning-time partitions
shuffle (the paper's random even split); query-time spans stay
contiguous because results must reassemble positionally.
"""

from __future__ import annotations

import os
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
from repro.ilp.coverage import coverage_bitset
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.modes import ModeSet
from repro.ilp.refinement import SearchRule, refinements, start_rule
from repro.logic.clause import Clause, Theory
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.parallel.master import EpochLog
from repro.parallel.messages import (
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    StartPipeline,
    Stop,
    per_worker_evaluate_requests,
    record_candidate_masks,
)
from repro.parallel.p2mdie import (
    P2Result,
    SharedProblem,
    _check_resume,
    _result_from_run,
    _validate_fault_args,
)
from repro.parallel.partition import partition_examples
from repro.parallel.worker import P2Worker
from repro.util.rng import make_rng

__all__ = ["CoverageParallelMaster", "run_coverage_parallel"]


class CoverageParallelMaster(FTMasterMixin, SimProcess):
    """Sequential search, distributed evaluation (rank 0)."""

    def __init__(
        self,
        n_workers: int,
        kb: KnowledgeBase,
        pos: Sequence[Term],
        neg: Sequence[Term],
        modes: ModeSet,
        config: ILPConfig,
        batch_size: int = 1,
        seed: int = 0,
        max_epochs: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        spares: int = 0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_meta: tuple = (),
        resume=None,
    ):
        super().__init__(0)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n_workers = n_workers
        self.kb = kb
        self.pos = list(pos)
        self.neg = list(neg)
        self.modes = modes
        self.config = config
        self.batch_size = batch_size
        self.seed = seed
        self.max_epochs = max_epochs
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
        # rank -> {clause -> (pos_cand, neg_cand)} local candidate masks:
        # every batch rule's parent was evaluated in an earlier round, so
        # inheritance narrows nearly every remote re-evaluation here.
        self._worker_cand: dict[int, dict[Clause, tuple[int, int]]] = {}
        # outputs:
        self.theory = Theory()
        self.epoch_logs: list[EpochLog] = []
        self.remaining = len(pos)
        self._resume = resume
        self._resume_alive: Optional[int] = None
        self._resume_failed = 0
        if resume is not None:
            from repro.fault.checkpoint import epoch_logs_from_records, verify_config

            verify_config(resume, config.signature())
            self.theory = Theory(resume.theory)
            self.epoch_logs = epoch_logs_from_records(resume.epoch_logs)
            self.remaining = resume.remaining
            self._resume_alive = resume.alive_mask
            self._resume_failed = resume.failed_mask

    @property
    def epochs(self) -> int:
        return len(self.epoch_logs)

    def _workers(self) -> list[int]:
        return list(range(1, self.n_workers + 1))

    # -- checkpointing -----------------------------------------------------------
    def _write_checkpoint(self, alive: int, failed: int, rng) -> None:
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
            algo="covpar",
            seed=self.seed,
            n_workers=self.n_workers,
            total_pos=len(self.pos),
            epoch=self.epochs,
            remaining=max(self.remaining, 0),
            stall=0,
            theory=tuple(self.theory),
            epoch_logs=records_from_epoch_logs(self.epoch_logs),
            alive_mask=alive,
            failed_mask=failed,
            rng_state=rng.getstate(),
            config_sig=self.config.signature(),
            meta=self.checkpoint_meta,
        )
        save_checkpoint(checkpoint_path(self.checkpoint_dir, self.epochs), state)

    def _eval_round(self, ctx: ProcContext, batch: list[SearchRule]):
        clauses = [r.clause for r in batch]
        if self.ft is not None:
            totals = yield from self._ft_eval_round(ctx, clauses)
            return totals
        rules = tuple(clauses)
        parents = tuple(r.parent for r in batch)
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
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        return totals

    # -- fault-tolerant history ---------------------------------------------------
    def _ft_history(self):
        completed = tuple(tuple(log.accepted) for log in self.epoch_logs)
        current = self._ft_current_log.accepted if self._ft_current_log is not None else ()
        # Coverage-parallel workers only ever evaluate — the master owns
        # the seed pool — so replay is kills only, never seed draws.
        return (completed, tuple(current), False, False, self.epochs + 1)

    def run(self, ctx: ProcContext):
        ft = self.ft is not None
        if ft:
            self._ft_init()
        for k in self._workers():
            if self._resume is not None:
                # The epoch-boundary adoption payload doubles as the
                # resume loader (kills-only replay for covpar workers).
                yield ctx.send(k, self._ft_adopt_payload(k), tag=Tag.LOAD_EXAMPLES)
            else:
                yield ctx.send(k, LoadExamples(partition_id=k), tag=Tag.LOAD_EXAMPLES)

        engine = self.config.make_engine(self.kb)
        rng = make_rng(self.seed, "covpar")
        alive = (1 << len(self.pos)) - 1
        failed = 0
        if self._resume is not None:
            if self._resume.rng_state is not None:
                rng.setstate(self._resume.rng_state)
            alive = self._resume_alive if self._resume_alive is not None else alive
            failed = self._resume_failed

        while self.remaining > 0:
            if self.max_epochs is not None and self.epochs >= self.max_epochs:
                break
            if ft:
                yield from self._ft_admit_joins(ctx, self.epochs + 1)
            candidates = alive & ~failed
            idxs = [i for i in range(len(self.pos)) if (candidates >> i) & 1]
            if not idxs:
                break
            i = rng.choice(idxs) if self.config.select_seed_randomly else idxs[0]
            log = EpochLog(epoch=self.epochs + 1, bag_size=0)
            self._ft_current_log = log
            # Masks only serve parent->child narrowing within one seed's
            # search; dropping them per epoch bounds the master's memory.
            self._worker_cand.clear()

            ops0 = engine.total_ops
            try:
                bottom = build_bottom_cached(self.pos[i], engine, self.modes, self.config)
            except SaturationError:
                bottom = None
            yield ctx.compute(engine.total_ops - ops0, label="saturate")
            if bottom is None:
                failed |= 1 << i
                self.epoch_logs.append(log)
                self._ft_current_log = None
                self._write_checkpoint(alive, failed, rng)
                continue

            # Breadth-first search; evaluation happens remotely in batches.
            queue: list[SearchRule] = [start_rule(bottom)]
            qi = 0
            nodes = 0
            seen: set[Clause] = set()
            best: Optional[tuple[float, SearchRule, int, int]] = None
            while qi < len(queue) and nodes < self.config.max_nodes:
                batch: list[SearchRule] = []
                while qi < len(queue) and len(batch) < self.batch_size and nodes + len(batch) < self.config.max_nodes:
                    r = queue[qi]
                    qi += 1
                    if r.clause in seen:
                        continue
                    seen.add(r.clause)
                    batch.append(r)
                if not batch:
                    break
                nodes += len(batch)
                log.bag_size += len(batch)
                totals = yield from self._eval_round(ctx, batch)
                for r, (pcount, ncount) in zip(batch, totals):
                    score = score_rule(pcount, ncount, len(r.clause.body) + 1, self.config)
                    if r.clause.body and is_good(pcount, ncount, self.config):
                        if best is None or (score, -len(r.clause.body)) > (best[0], -len(best[1].clause.body)):
                            best = (score, r, pcount, ncount)
                    if pcount >= self.config.min_pos:
                        queue.extend(refinements(r, bottom, self.config))

            if best is None:
                failed |= 1 << i
                self.epoch_logs.append(log)
                self._ft_current_log = None
                if ft:
                    yield from self._ft_epoch_pulse(ctx, log)
                self._write_checkpoint(alive, failed, rng)
                continue

            _, rule, pcount, _ = best
            self.theory.add(rule.clause)
            log.accepted.append(rule.clause)
            log.pos_covered = pcount
            self.remaining -= pcount
            dsts = self.ft.serving_hosts() if ft else self._workers()
            yield ctx.bcast(MarkCovered(rule=rule.clause), tag=Tag.MARK_COVERED, dsts=dsts)
            # Master-side alive view: it owns the seed pool, so it tracks
            # global coverage with one local evaluation (charged).
            ops0 = engine.total_ops
            bits = coverage_bitset(engine, rule.clause, self.pos)
            yield ctx.compute(engine.total_ops - ops0, label="mark_covered")
            alive &= ~bits
            failed &= alive
            self.epoch_logs.append(log)
            self._ft_current_log = None
            if ft:
                yield from self._ft_epoch_pulse(ctx, log)
            self._write_checkpoint(alive, failed, rng)

        dsts = self.ft.hosts if ft else self._workers()
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=dsts)


def run_coverage_parallel(
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: ModeSet,
    config: ILPConfig,
    p: int,
    batch_size: int = 1,
    seed: int = 0,
    network: NetworkModel = FAST_ETHERNET,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_epochs: Optional[int] = None,
    backend: Union[Backend, str, None] = None,
    fault_plan: Optional[FaultPlan] = None,
    spares: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_meta: tuple = (),
    resume=None,
) -> P2Result:
    """Run the coverage-parallel baseline; returns the same artifact type
    as :func:`repro.parallel.p2mdie.run_p2mdie` so harness code can compare
    them directly."""
    plan = _validate_fault_args(fault_plan, spares, p)
    _check_resume(resume, "covpar", p, seed)
    rng = make_rng(seed, "partition")
    partitions = partition_examples(pos, neg, p, rng)
    shared = SharedProblem(kb, partitions, modes, config)
    master = CoverageParallelMaster(
        n_workers=p,
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        batch_size=batch_size,
        seed=seed,
        max_epochs=max_epochs,
        fault_plan=plan,
        spares=spares,
        checkpoint_dir=checkpoint_dir,
        checkpoint_meta=checkpoint_meta,
        resume=resume,
    )
    workers = [P2Worker(rank, shared, p, seed=seed) for rank in range(1, p + spares + 1)]
    bk = resolve_backend(backend, network=network, cost_model=cost_model)
    run = bk.run([master, *workers], fault_plan=plan)
    return _result_from_run(run)
