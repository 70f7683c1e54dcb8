"""Baseline: data-parallel *coverage testing* (related work, paper §6).

The strategy of Graham et al. [14] and Konstantopoulos [19]: a single
master runs the ordinary sequential MDIE search, but each candidate rule's
coverage is computed by the workers on their example partitions and summed
by the master.  The search itself is not parallelised — only
``evalOnExamples`` is.

The task granularity is controlled by ``batch_size``: 1 rule per round is
Konstantopoulos' fine-grained variant (one latency-bound round trip per
candidate — the paper attributes his "poor results" to exactly this);
larger batches approximate Graham et al.  This baseline exists to
reproduce the §6 comparison, p²-mdie's medium/high granularity vs.
fine-grained coverage-parallelism: ``repro.run.run(..., algo="covpar")``
runs it, as do the ``covpar`` strategy of ``repro faults`` and the
``coverage_parallel`` cases of ``tests/data/golden_runs.json``.

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

from typing import Optional, Sequence, Union

from repro.backend import Backend
from repro.cluster.process import ProcContext
from repro.fault.plan import FaultPlan
from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.config import ILPConfig
from repro.ilp.coverage import coverage_bitset
from repro.ilp.heuristics import is_good, score_rule
from repro.ilp.mdie import select_seed
from repro.ilp.modes import ModeSet
from repro.ilp.refinement import SearchRule, refinements, start_rule
from repro.logic.clause import Clause
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.parallel.master import Master
from repro.parallel.p2mdie import (
    P2Result,
    SharedProblem,
    _check_resume,
    _launch,
    _validate_fault_args,
)
from repro.parallel.worker import P2Worker
from repro.util.rng import make_rng

__all__ = ["CoverageParallelMaster", "run_coverage_parallel"]


class CoverageParallelMaster(Master):
    """Sequential search, distributed evaluation (rank 0).

    Workers only ever evaluate and mark — the master owns the seed pool —
    so adoption replays kills only (the base ``_ft_history``).  Every
    batch rule's parent was evaluated in an earlier round, so each
    worker's store narrows nearly every re-evaluation against its own
    cached parent entry (lineage is a key prefix: body minus the last literal).
    """

    ALGO = "covpar"

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
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(
            n_workers,
            len(pos),
            config,
            seed=seed,
            fault_plan=fault_plan,
            spares=spares,
            checkpoint_dir=checkpoint_dir,
            checkpoint_meta=checkpoint_meta,
            resume=resume,
        )
        self.kb = kb
        self.pos = list(pos)
        self.neg = list(neg)
        self.modes = modes
        self.batch_size = batch_size
        self.max_epochs = max_epochs

    def run(self, ctx: ProcContext):
        yield from self._load(ctx)
        engine = self.config.make_engine(self.kb)
        rng = make_rng(self.seed, "covpar")
        alive = (1 << len(self.pos)) - 1
        failed = 0
        if self._resume is not None:
            if self._resume.rng_state is not None:
                rng.setstate(self._resume.rng_state)
            alive = self._resume.alive_mask
            failed = self._resume.failed_mask

        while self.remaining > 0:
            if self.max_epochs is not None and self.epochs >= self.max_epochs:
                break
            yield from self._admit_joins(ctx)
            i = select_seed(alive & ~failed, rng)
            if i is None:
                break
            log = self._open_epoch()

            ops0 = engine.total_ops
            try:
                bottom = build_bottom_cached(self.pos[i], engine, self.modes, self.config)
            except SaturationError:
                bottom = None
            yield ctx.compute(engine.total_ops - ops0, label="saturate")
            best = None
            if bottom is not None:
                best = yield from self._search(ctx, bottom, log)
            if best is None:
                failed |= 1 << i
            else:
                rule, pcount = best
                self.theory.add(rule)
                log.accepted.append(rule)
                log.pos_covered = pcount
                self.remaining -= pcount
                yield from self._mark_covered(ctx, rule)
                # Master-side alive view: it owns the seed pool, so it tracks
                # global coverage with one local evaluation (charged).
                ops0 = engine.total_ops
                bits = coverage_bitset(engine, rule, self.pos)
                yield ctx.compute(engine.total_ops - ops0, label="mark_covered")
                alive &= ~bits
                failed &= alive
            yield from self._end_epoch(ctx, log)
            self._write_checkpoint(
                stall=0, alive_mask=alive, failed_mask=failed, rng_state=rng.getstate()
            )

        yield from self._stop(ctx)

    def _search(self, ctx: ProcContext, bottom, log):
        """Breadth-first search below ``bottom``; evaluation happens
        remotely in batches.  Returns ``(clause, pos)`` of the best good
        rule, or None."""
        queue: list[SearchRule] = [start_rule(bottom)]
        qi = 0
        nodes = 0
        seen: set[Clause] = set()
        best: Optional[tuple[float, SearchRule, int]] = None
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
            totals = yield from self._eval_round(ctx, [r.clause for r in batch])
            for r, (pcount, ncount) in zip(batch, totals):
                score = score_rule(pcount, ncount)
                if r.clause.body and is_good(pcount, ncount, self.config):
                    if best is None or (score, -len(r.clause.body)) > (best[0], -len(best[1].clause.body)):
                        best = (score, r, pcount)
                if pcount >= self.config.min_pos:
                    queue.extend(refinements(r, bottom, self.config))
        return None if best is None else (best[1].clause, best[2])


def run_coverage_parallel(
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: ModeSet,
    config: ILPConfig,
    p: int,
    batch_size: int = 1,
    seed: int = 0,
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
    plan = _validate_fault_args("covpar", fault_plan, spares, p)
    _check_resume(resume, "covpar", p, seed)
    shared = SharedProblem.partitioned(kb, pos, neg, modes, config, p, seed)
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
    return _launch(master, P2Worker, shared, spares, seed, backend)
