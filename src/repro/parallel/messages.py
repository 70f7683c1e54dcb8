"""Task payloads exchanged by the P²-MDIE master and workers.

These are the paper's worker tasks (Fig. 6) plus the inter-stage pipeline
message (Fig. 7 line 17).  All payloads are plain picklable dataclasses;
their marshalled size — the compact wire encoding of
:mod:`repro.parallel.wire`, which registers every one of them — is what
the Table 4 communication accounting charges.

Design note: per §4.1 the training data itself is *not* shipped — "we
assumed ... the data can be shared by all processors, through a
distributed file system".  :class:`LoadExamples` therefore carries only
the partition id; the simulated shared filesystem is
:class:`repro.parallel.p2mdie.SharedProblem`.

One message per task, stamped under a fault plan: :class:`StartPipeline`,
:class:`PipelineTask`, :class:`PipelineRules`, :class:`EvaluateRequest`
and :class:`EvaluateResult` carry an optional ``epoch`` (pipeline
messages; a start adds the ``origin`` to root it at) or ``round``
(evaluation).  Plan-free runs leave it None; under a plan every task is
stamped and every reply echoes its request's stamp, so stale traffic is
discarded.  The stamp picks the wire layout: plain codes 2, 35, 36, 32
and 33, or the stamped codes 15, 37, 38, 17 and 34 — the stamp, then the
plain body, except a start (``origin, width?, epoch``).  A start no
layout holds (``origin`` without ``epoch``) is refused at encode time
rather than shipped with a field dropped.

Lineage never travels: refinement appends one literal, so a rule's
parent is its body minus the last literal, and every rank's store finds
that parent's cached entry by the rule's key prefix
(:class:`repro.ilp.store.ExampleStore`).  A :class:`PipelineTask`'s rules
are ⊥e's head plus increasing subsequences of ⊥e's literals, so the wire
carries each as its positions in the task's own ⊥e, and the receiver
rebuilds it by refinement steps.  :class:`PipelineRules` and
:class:`EvaluateRequest` carry plain clauses: the master holds no ⊥e.  A
plan-free run differs from a healing run only in the stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ilp.bottom import BottomClause
from repro.ilp.refinement import SearchRule
from repro.logic.clause import Clause

__all__ = [
    "LoadExamples",
    "StartPipeline",
    "PipelineTask",
    "PipelineRules",
    "EvaluateRequest",
    "EvaluateResult",
    "MarkCovered",
    "Stop",
    "RuleStats",
    "Ping",
    "Pong",
    "AdoptWorker",
    "UpdateRouting",
]


@dataclass(frozen=True)
class LoadExamples:
    """'Load your subset' notification (data comes from the shared FS)."""

    partition_id: int


@dataclass(frozen=True)
class StartPipeline:
    """Start a pipeline (Fig. 6), rooted at the receiving worker — or,
    stamped, at logical worker ``origin`` for ``epoch``.  Stamped starts
    are idempotent (a shard reuses its remembered seed/bottom for the
    epoch), so lost pipelines can be reissued."""

    width: Optional[int]  # None = nolimit
    origin: Optional[int] = None
    epoch: Optional[int] = None


@dataclass(frozen=True)
class PipelineTask:
    """``learn_rule'(⊥e, step, w, S)`` shipped to the next stage (Fig. 7).

    ``bottom`` is None when the originating worker had no usable seed (its
    positives were exhausted); such pipelines pass through unchanged so the
    master still receives exactly ``p`` result sets.  Every rule is a
    refinement of ``bottom``'s most general rule, so a task with rules has
    a ``bottom``.  ``epoch`` (stamped) lets tokens of an aborted epoch
    attempt die instead of polluting the next one.
    """

    bottom: Optional[BottomClause]
    step: int
    width: Optional[int]
    rules: tuple[SearchRule, ...]
    origin: int  # rank that seeded this pipeline
    epoch: Optional[int] = None


@dataclass(frozen=True)
class PipelineRules:
    """Final rules of one pipeline, delivered to the master."""

    origin: int
    rules: tuple[Clause, ...]
    epoch: Optional[int] = None


@dataclass(frozen=True)
class EvaluateRequest:
    """Master → workers: evaluate these rules on your local subset
    (stamped with the evaluation ``round`` under a fault plan)."""

    rules: tuple[Clause, ...]
    round: Optional[int] = None


@dataclass(frozen=True)
class RuleStats:
    """One rule's local evaluation: alive-positive and negative cover."""

    pos: int
    neg: int


@dataclass(frozen=True)
class EvaluateResult:
    """Worker → master: one (logical) worker's per-rule local stats, in
    request order, stamped with the request's ``round``."""

    rank: int
    stats: tuple[RuleStats, ...]
    round: Optional[int] = None


@dataclass(frozen=True)
class MarkCovered:
    """Master → workers: rule accepted; retract covered positives."""

    rule: Clause


@dataclass(frozen=True)
class Stop:
    """Master → workers: learning finished."""


# -- the control messages of recovery (repro.fault) ----------------------------------
#
# Under a fault plan the tasks above travel stamped (module docstring);
# these have no plain counterpart: heartbeats, adoption of a dead host's
# logical workers (also the load message of a checkpoint-resumed run) and
# the logical -> physical routing table.


@dataclass(frozen=True)
class Ping:
    """Master → host: heartbeat probe (failure detection + epoch pulse)."""

    token: int


@dataclass(frozen=True)
class Pong:
    """Host → master: liveness reply, carrying the host's aggregate
    evaluation-cache counters (summed over hosted logical workers) so
    recovery-induced cache invalidation is observable per epoch."""

    rank: int
    token: int
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class AdoptWorker:
    """Master → host: reconstruct logical worker ``virtual_rank`` here.

    The host reads partition ``partition_id`` from the shared filesystem
    and *replays* the logical worker's deterministic history — one seed
    draw per epoch (when ``draw_seeds``) and the kills of every accepted
    rule — so the rebuilt shard is bit-identical to the lost worker's
    state at the current protocol point.  ``completed`` holds the
    accepted rules of each finished epoch; ``current`` the rules accepted
    so far in epoch ``epoch``; ``draw_current`` says whether the
    in-progress epoch's seed draw already happened in the fault-free
    timeline (mid-epoch adoption) or not (epoch-boundary migration).
    Also the initial load message of a checkpoint-resumed run.
    """

    virtual_rank: int
    partition_id: int
    epoch: int
    completed: tuple
    current: tuple
    draw_seeds: bool = True
    draw_current: bool = False


@dataclass(frozen=True)
class UpdateRouting:
    """Master → hosts: logical-worker → physical-host table.

    Hosts use it to forward pipeline stages and drop logical workers
    migrated elsewhere (elastic shrink of their own share)."""

    routing: tuple  # ((virtual_rank, host_rank), ...)

