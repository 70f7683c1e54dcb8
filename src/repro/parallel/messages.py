"""Task payloads exchanged by the P²-MDIE master and workers.

These are the paper's worker tasks (Fig. 6) plus the inter-stage pipeline
message (Fig. 7 line 17).  All payloads are plain picklable dataclasses;
their marshalled size — the compact wire encoding of
:mod:`repro.parallel.wire`, in the layouts this module registers with it
(codes 0, 2, 7, 11-17 and 32-38) — is what the Table 4 communication
accounting charges.  The layouts sit beside the classes, so the codec
core loads no learner, and every rank has them before it forks.

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
carries each as the gaps between its literals' positions in the task's
own ⊥e, and the receiver rebuilds it by refinement steps
(``with_extra_literal`` from ⊥e's most general rule), so its variant
key is built incrementally, as the sender's was.  A rule no positions
can carry is refused at encode time.  :class:`PipelineRules` and
:class:`EvaluateRequest` carry plain clauses: the master holds no ⊥e.  A
plan-free run differs from a healing run only in the stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ilp.bottom import BottomClause, BottomLiteral
from repro.ilp.refinement import SearchRule
from repro.logic.clause import Clause
from repro.parallel import wire

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


# -- wire layouts (repro.parallel.wire) ----------------------------------------------
#
# The codec core writes terms and clauses; a bottom clause and the rules
# of a pipeline task are laid out here, beside the only messages that
# carry them.
#
#   bottom := term(seed) term(head) varint(n) (term varset varset)* varset
#   rule   := varint(n) varint(gap)*   (⊥e literals skipped before each)


def _enc_bottom(e, b: BottomClause) -> None:
    e.term(b.seed)
    e.term(b.head)
    e.u(len(b.literals))
    for bl in b.literals:
        e.term(bl.literal)
        e.varset(bl.input_vars)
        e.varset(bl.output_vars)
    e.varset(b.head_vars)


def _dec_bottom(d) -> BottomClause:
    seed = d.term()
    head = d.term()
    literals = [BottomLiteral(d.term(), d.varset(), d.varset()) for _ in range(d.u())]
    return BottomClause(seed=seed, head=head, literals=literals, head_vars=d.varset())


def _positions(sr: SearchRule, bottom: BottomClause) -> list[int]:
    """Where ``sr``'s body literals sit in ``bottom``, by a forward ``==``
    scan of its literals; refused unless ``sr`` is ``bottom``'s head plus
    the literals found, ending at ``sr.last_index``."""
    lits = bottom.literals
    out = []
    j = 0
    for lit in sr.clause.body:
        while j < len(lits) and lits[j].literal != lit:
            j += 1
        if j == len(lits):
            break
        out.append(j)
        j += 1
    if len(out) < len(sr.clause.body) or sr.clause.head != bottom.head or j - 1 != sr.last_index:
        raise wire.WireError(f"search rule {sr} is no forward match of its bottom clause")
    return out


def _enc_rules(e, seq, bottom: Optional[BottomClause]) -> None:
    """Search rules as positions in ``bottom`` (module docstring)."""
    e.u(len(seq))
    if seq and bottom is None:
        raise wire.WireError("a pipeline task's rules travel as positions in its bottom clause")
    for sr in seq:
        positions = _positions(sr, bottom)
        e.u(len(positions))
        prev = -1
        for j in positions:
            e.u(j - prev - 1)
            prev = j


def _dec_rules(d, bottom: Optional[BottomClause]) -> tuple:
    rules = []
    for _ in range(d.u()):
        clause = bottom.most_general_rule()
        j = -1
        for _ in range(d.u()):
            j += d.u() + 1
            clause = clause.with_extra_literal(bottom.literals[j].literal)
        rules.append(SearchRule(clause, j))
    return tuple(rules)


def _enc_load_examples(e, m: LoadExamples) -> None:
    e.u(m.partition_id)


def _dec_load_examples(d) -> LoadExamples:
    return LoadExamples(partition_id=d.u())


def _stamp(e, stamp: Optional[int], plain: int, stamped: int) -> int:
    """Write a message's stamp, if any, where its layout puts it; return
    the code it goes under (``plain`` unstamped, ``stamped`` otherwise)."""
    if stamp is None:
        return plain
    e.u(stamp)
    return stamped


def _dec_stamp_first(dec, stamp: str):
    """Decoder of a stamp-first layout: the stamp, then the plain body."""
    return lambda d: dec(d, **{stamp: d.u()})


def _enc_start_pipeline(e, m: StartPipeline) -> int:
    if (m.origin is None) != (m.epoch is None):
        raise wire.WireError(f"origin and epoch travel together: {m!r}")
    if m.epoch is not None:
        e.u(m.origin)
    e.flag(m.width is not None)
    if m.width is not None:
        e.u(m.width)
    return _stamp(e, m.epoch, 2, 15)


def _dec_start_pipeline(d) -> StartPipeline:
    return StartPipeline(width=d.u() if d.flag() else None)


def _dec_stamped_start(d) -> StartPipeline:
    return StartPipeline(origin=d.u(), width=d.u() if d.flag() else None, epoch=d.u())


def _enc_pipeline_task(e, m: PipelineTask) -> int:
    code = _stamp(e, m.epoch, 35, 37)
    e.flag(m.bottom is not None)
    if m.bottom is not None:
        _enc_bottom(e, m.bottom)
    e.u(m.step)
    e.flag(m.width is not None)
    if m.width is not None:
        e.u(m.width)
    _enc_rules(e, m.rules, m.bottom)
    e.u(m.origin)
    return code


def _dec_pipeline_task(d, epoch: Optional[int] = None) -> PipelineTask:
    bottom = _dec_bottom(d) if d.flag() else None
    step = d.u()
    width = d.u() if d.flag() else None
    rules = _dec_rules(d, bottom)
    return PipelineTask(
        bottom=bottom, step=step, width=width, rules=rules, origin=d.u(), epoch=epoch
    )


def _enc_pipeline_result(e, m: PipelineRules) -> int:
    code = _stamp(e, m.epoch, 36, 38)
    e.u(m.origin)
    e.clauses(m.rules)
    return code


def _dec_pipeline_result(d, epoch: Optional[int] = None) -> PipelineRules:
    return PipelineRules(origin=d.u(), rules=d.clauses(), epoch=epoch)


def _enc_evaluate_request(e, m: EvaluateRequest) -> int:
    code = _stamp(e, m.round, 32, 17)
    e.clauses(m.rules)
    return code


def _dec_evaluate_request(d, round: Optional[int] = None) -> EvaluateRequest:
    return EvaluateRequest(rules=d.clauses(), round=round)


def _enc_evaluate_result(e, m: EvaluateResult) -> int:
    code = _stamp(e, m.round, 33, 34)
    e.u(m.rank)
    e.u(len(m.stats))
    for rs in m.stats:
        e.u(rs.pos)
        e.u(rs.neg)
    return code


def _dec_evaluate_result(d, round: Optional[int] = None) -> EvaluateResult:
    rank = d.u()
    stats = tuple(RuleStats(pos=d.u(), neg=d.u()) for _ in range(d.u()))
    return EvaluateResult(rank=rank, stats=stats, round=round)


def _enc_mark_covered(e, m: MarkCovered) -> None:
    e.clause(m.rule)


def _dec_mark_covered(d) -> MarkCovered:
    return MarkCovered(rule=d.clause())


def _enc_stop(e, m: Stop) -> None:
    pass


def _dec_stop(d) -> Stop:
    return Stop()


def _enc_ping(e, m: Ping) -> None:
    e.u(m.token)


def _dec_ping(d) -> Ping:
    return Ping(token=d.u())


def _enc_pong(e, m: Pong) -> None:
    e.u(m.rank)
    e.u(m.token)
    e.u(m.cache_hits)
    e.u(m.cache_misses)


def _dec_pong(d) -> Pong:
    return Pong(rank=d.u(), token=d.u(), cache_hits=d.u(), cache_misses=d.u())


def _enc_adopt_worker(e, m: AdoptWorker) -> None:
    e.u(m.virtual_rank)
    e.u(m.partition_id)
    e.u(m.epoch)
    e.u(len(m.completed))
    for epoch_rules in m.completed:
        e.clauses(epoch_rules)
    e.clauses(m.current)
    e.flag(m.draw_seeds)
    e.flag(m.draw_current)


def _dec_adopt_worker(d) -> AdoptWorker:
    virtual_rank = d.u()
    partition_id = d.u()
    epoch = d.u()
    completed = tuple(d.clauses() for _ in range(d.u()))
    current = d.clauses()
    return AdoptWorker(
        virtual_rank=virtual_rank,
        partition_id=partition_id,
        epoch=epoch,
        completed=completed,
        current=current,
        draw_seeds=d.flag(),
        draw_current=d.flag(),
    )


def _enc_update_routing(e, m: UpdateRouting) -> None:
    e.u(len(m.routing))
    for virtual, host in m.routing:
        e.u(virtual)
        e.u(host)


def _dec_update_routing(d) -> UpdateRouting:
    return UpdateRouting(routing=tuple((d.u(), d.u()) for _ in range(d.u())))


#: (type, code, encoder, decoder) of every layout, by code.  A task
#: message's encoder returns the code it wrote, plain or stamped, and its
#: stamped code registers decode-only.
_LAYOUTS = (
    (LoadExamples, 0, _enc_load_examples, _dec_load_examples),
    (StartPipeline, 2, _enc_start_pipeline, _dec_start_pipeline),
    (MarkCovered, 7, _enc_mark_covered, _dec_mark_covered),
    (Stop, 11, _enc_stop, _dec_stop),
    (Ping, 12, _enc_ping, _dec_ping),
    (Pong, 13, _enc_pong, _dec_pong),
    (AdoptWorker, 14, _enc_adopt_worker, _dec_adopt_worker),
    (StartPipeline, 15, None, _dec_stamped_start),
    (UpdateRouting, 16, _enc_update_routing, _dec_update_routing),
    (EvaluateRequest, 17, None, _dec_stamp_first(_dec_evaluate_request, "round")),
    (EvaluateRequest, 32, _enc_evaluate_request, _dec_evaluate_request),
    (EvaluateResult, 33, _enc_evaluate_result, _dec_evaluate_result),
    (EvaluateResult, 34, None, _dec_stamp_first(_dec_evaluate_result, "round")),
    (PipelineTask, 35, _enc_pipeline_task, _dec_pipeline_task),
    (PipelineRules, 36, _enc_pipeline_result, _dec_pipeline_result),
    (PipelineTask, 37, None, _dec_stamp_first(_dec_pipeline_task, "epoch")),
    (PipelineRules, 38, None, _dec_stamp_first(_dec_pipeline_result, "epoch")),
)
for _layout in _LAYOUTS:
    wire.register_codec(*_layout)
del _layout
