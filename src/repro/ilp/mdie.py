"""Sequential MDIE covering algorithm (paper Fig. 1).

This is the baseline the parallel algorithm is measured against: learn one
rule at a time from a randomly selected uncovered seed example, accept the
best good rule found, remove the positives it covers, repeat.

The run log records, per iteration, the engine operations spent — the cost
proxy that the simulated cluster uses, so sequential and parallel runs are
timed on an identical scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.config import ILPConfig
from repro.ilp.coverage import indices_from_bitset
from repro.ilp.modes import ModeSet
from repro.ilp.search import learn_rule
from repro.ilp.store import ExampleStore
from repro.logic.clause import Theory
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.util.rng import make_rng

__all__ = ["MDIEResult", "mdie", "select_seed"]


@dataclass
class MDIEResult:
    """Sequential run outcome plus cost accounting."""

    theory: Theory
    #: iterations of the covering loop (one rule learned per epoch here).
    epochs: int
    #: engine operations consumed (bottom construction + search + eval).
    ops: int
    #: positives left uncovered (seed examples no good rule covered).
    uncovered: int
    #: per-epoch log entries: (seed, rule or None, pos_covered, ops).
    log: list = field(default_factory=list)
    #: ExampleStore evaluation-cache counters for the run.
    cache_hits: int = 0
    cache_misses: int = 0


def select_seed(candidates_mask: int, rng: random.Random) -> Optional[int]:
    """Pick a seed example index from ``candidates_mask`` (None when it is
    empty): ``rng.choice`` over the set bits, ascending — the paper's
    random seed draw.

    The one seed draw of every run: the sequential loop, the
    coverage-parallel master, the independent workers' local loops and
    every pipeline shard (:func:`repro.fault.recovery.draw_seed`) call it.
    """
    idxs = list(indices_from_bitset(candidates_mask))
    if not idxs:
        return None
    return rng.choice(idxs)


def mdie(
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: ModeSet,
    config: ILPConfig,
    seed: int = 0,
    max_epochs: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_meta: tuple = (),
    resume=None,
) -> MDIEResult:
    """Run the sequential MDIE covering loop of Fig. 1.

    ``seed`` drives the random seed-example selection; ``max_epochs`` is an
    optional stopping condition (the paper's "some time limit").

    ``checkpoint_dir`` writes a resumable snapshot of the covering state
    (theory, liveness masks, RNG state, run log) after every epoch;
    ``resume`` (a loaded :class:`~repro.fault.checkpoint.CheckpointState`
    with ``algo == "mdie"``) continues such a run: the remaining epochs
    select the same seeds and learn the same rules as the uninterrupted
    run.  (Engine-operation counts of recomputed evaluations may differ —
    caches restart cold — but never the learned clauses.)
    """
    engine = config.make_engine(kb)
    store = ExampleStore(pos, neg)
    rng = make_rng(seed, "mdie")
    theory = Theory()
    log: list = []
    # Seeds that produced no acceptable rule; excluded from re-selection.
    failed_mask = 0
    epochs = 0
    prior_ops = 0
    if resume is not None:
        from repro.fault.checkpoint import verify_config

        if resume.algo != "mdie":
            raise ValueError(f"checkpoint is for {resume.algo!r}, not 'mdie'")
        if resume.seed != seed:
            raise ValueError(f"checkpoint seed {resume.seed} != requested seed {seed}")
        verify_config(resume, config.signature())
        theory = Theory(resume.theory)
        log = list(resume.mdie_log)
        store.alive = resume.alive_mask
        failed_mask = resume.failed_mask
        epochs = resume.epoch
        prior_ops = resume.ops
        if resume.rng_state is not None:
            rng.setstate(resume.rng_state)
    ops0 = engine.total_ops

    def write_checkpoint() -> None:
        if checkpoint_dir is None:
            return
        import os

        from repro.fault.checkpoint import (
            CHECKPOINT_VERSION,
            CheckpointState,
            checkpoint_path,
            save_checkpoint,
        )

        os.makedirs(checkpoint_dir, exist_ok=True)
        state = CheckpointState(
            version=CHECKPOINT_VERSION,
            algo="mdie",
            seed=seed,
            n_workers=0,
            total_pos=len(pos),
            epoch=epochs,
            remaining=store.remaining,
            stall=0,
            theory=tuple(theory),
            epoch_logs=(),
            alive_mask=store.alive,
            failed_mask=failed_mask,
            ops=prior_ops + engine.total_ops - ops0,
            rng_state=rng.getstate(),
            mdie_log=tuple(log),
            config_sig=config.signature(),
            meta=tuple(checkpoint_meta),
        )
        save_checkpoint(checkpoint_path(checkpoint_dir, epochs), state)

    while True:
        if max_epochs is not None and epochs >= max_epochs:
            break
        i = select_seed(store.alive & ~failed_mask, rng)
        if i is None:
            break
        example = store.pos[i]
        epoch_ops0 = engine.total_ops
        try:
            bottom = build_bottom_cached(example, engine, modes, config)
        except SaturationError:
            failed_mask |= 1 << i
            continue
        result = learn_rule(engine, bottom, store, config, seeds=None, width=1)
        epochs += 1
        best = result.best
        if best is None:
            failed_mask |= 1 << i
            log.append((example, None, 0, engine.total_ops - epoch_ops0))
            write_checkpoint()
            continue
        rule = best.clause
        theory.add(rule)
        covered = store.kill(best.stats.pos_bits)
        # Paper Fig. 6 adds the accepted rule to B.  Because learned targets
        # are non-recursive (no modeb mentions the target predicate), doing
        # so cannot change any coverage proof, so we keep B immutable and
        # track the theory separately — this also keeps the caller's KB
        # reusable across runs.
        log.append((example, rule, covered, engine.total_ops - epoch_ops0))
        write_checkpoint()

    return MDIEResult(
        theory=theory,
        epochs=epochs,
        ops=prior_ops + engine.total_ops - ops0,
        uncovered=store.remaining,
        log=log,
        cache_hits=store.cache_hits(),
        cache_misses=store.cache_misses(),
    )
