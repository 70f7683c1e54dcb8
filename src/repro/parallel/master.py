"""The rank-0 skeleton of every strategy, and the P²-MDIE master (Fig. 5).

Per epoch the P²-MDIE master:

1. starts ``p`` pipelines, one rooted at each worker (lines 6-8);
2. collects the ``p`` pipelines' final rule sets into ``RulesBag``
   (line 9);
3. globally evaluates the bag (broadcast ``evaluate`` / gather results,
   lines 10-11);
4. greedily consumes the bag (lines 12-22): accept the globally best rule,
   broadcast ``mark_covered``, re-evaluate the remainder, drop rules that
   are no longer good.

Epochs repeat until every positive example is covered or learning stalls
(no pipeline produced an acceptable rule for ``P2Master.STALL_LIMIT``
consecutive epochs — the paper's generic "stopping condition").

:class:`Master` owns those collective steps for all three strategies.
There is one path through them and one message per task, stamped under a
fault plan: without a :class:`~repro.fault.plan.FaultPlan` a step sends
unstamped ``StartPipeline`` / ``EvaluateRequest`` (blocking receives);
with one it sends them stamped with the epoch / round (timed receives,
heartbeat probes, adoption of dead hosts' logical workers, idempotent
reissue, and replies whose stamp does not match are discarded as stale
traffic from de-zombied hosts).  The choice is made per step from
``self.ft``, i.e. from the plan that is an argument of the run.  An
evaluation request carries the rules alone: each worker derives their
lineage itself (body minus the last literal).  The bytes of each are
pinned by a witness of its own: ``tests/data/golden_runs.json`` (plain) and
``tests/data/golden_healing.json`` (healing).  Checkpoints (when
enabled) are written at epoch boundaries under either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.message import Tag
from repro.cluster.process import ProcContext, SimProcess
from repro.fault.plan import FaultPlan
from repro.fault.recovery import PoolSupervisor, RecoveryError
from repro.ilp.config import ILPConfig
from repro.ilp.heuristics import is_good, score_rule
from repro.logic.clause import Clause, Theory
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    Ping,
    PipelineRules,
    Pong,
    StartPipeline,
    Stop,
    UpdateRouting,
)

__all__ = ["Master", "P2Master", "EpochLog", "ClauseBag", "drop_not_good", "pick_best"]


class ClauseBag:
    """An insertion-ordered candidate-rule bag deduplicating variants.

    The parallel masters collect every pipeline's rules into a bag before
    global evaluation.  Keying the bag by the order-preserving
    :meth:`repro.logic.clause.Clause.variant_key` collapses renamed-apart
    copies of a rule — same literals in the same order, hence
    charge-for-charge identical resource-bounded coverage — into one slot
    in O(1), instead of either evaluating both remotely or running
    pairwise θ-subsumption over the whole bag.  (Reordered bodies key
    apart on purpose: they can exhaust query budgets differently, so their
    global stats need not coincide.)

    When two variants collide, the **lexicographically smallest** rendering
    is kept: that is exactly the representative the master's deterministic
    tie-break (`score desc, length, str`) would end up accepting, so the
    learned theory is bit-identical to one that evaluates every duplicate.
    ``reported_size`` counts clauses distinct by plain equality — the
    number a bag without variant merging would hold — so epoch logs
    (Tables 3-5) are what the paper's bag sizes mean.
    """

    __slots__ = ("_by_key", "_exact")

    def __init__(self):
        self._by_key: dict = {}
        self._exact: set = set()

    def add(self, clause: Clause) -> None:
        self._exact.add(clause)
        key = clause.variant_key()
        prev = self._by_key.get(key)
        if prev is None:
            self._by_key[key] = clause
        elif prev is not clause and str(clause) < str(prev):
            # Keep the tie-break winner; the slot keeps its bag position.
            self._by_key[key] = clause

    def discard(self, clause: Clause) -> None:
        self._by_key.pop(clause.variant_key(), None)

    def __iter__(self):
        return iter(list(self._by_key.values()))

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def reported_size(self) -> int:
        """Bag size by plain clause equality (what the epoch logs report)."""
        return len(self._exact)

    def clauses(self) -> list[Clause]:
        return list(self._by_key.values())


def drop_not_good(bag: ClauseBag, stats: dict, config: ILPConfig) -> None:
    """Fig. 5 lines 20-21: discard rules that stopped being good.

    Shared by every master that consumes a rule bag — the filter and the
    tie-break below are parity-critical (golden tests pin bit-identical
    theories), so they live in exactly one place.
    """
    for clause in bag:
        p, n = stats[clause]
        if not is_good(p, n, config):
            bag.discard(clause)


def pick_best(bag: ClauseBag, stats: dict) -> Clause:
    """Fig. 5 line 13: best rule by global-coverage heuristic."""

    def key(clause: Clause):
        p, n = stats[clause]
        s = score_rule(p, n)
        return (-s, len(clause.body), str(clause))

    return min(bag, key=key)


@dataclass
class EpochLog:
    """Per-epoch bookkeeping (drives Tables 3-5 and the trace figure)."""

    epoch: int
    bag_size: int
    accepted: list[Clause] = field(default_factory=list)
    pos_covered: int = 0
    #: aggregate worker evaluation-cache counters at epoch end (collected
    #: by the end-of-epoch heartbeat of a run under a fault plan; None
    #: without a plan — a plan-free run sends no heartbeat).
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None


class Master(SimProcess):
    """Rank-0 skeleton: pool, checkpoint and resume state plus the
    collective steps of Fig. 5, shared by the three strategies.

    A strategy's ``run`` composes the steps (``_load``, ``_admit_joins``,
    ``_open_epoch``, ``_pipeline_round``, ``_eval_round``,
    ``_consume_bag``, ``_end_epoch``, ``_stop``); each step holds its
    plain body and its healing body side by side and picks one from
    ``self.ft``.
    """

    #: ``CheckpointState.algo`` of the strategy's snapshots.
    ALGO = ""
    #: consecutive empty detection rounds before giving up.
    MAX_RECOVERY_ROUNDS = 25
    #: consecutive silent probes before a host is declared dead — a
    #: single lost/late heartbeat exchange must not kill a live host
    #: (fatal when it is the last one standing).
    SUSPECT_ROUNDS = 2

    def __init__(
        self,
        n_workers: int,
        total_pos: int,
        config: ILPConfig,
        seed: int = 0,
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
        self.seed = seed
        # fault tolerance & checkpointing (repro.fault):
        self.fault_plan = fault_plan
        self.ft: Optional[PoolSupervisor] = (
            PoolSupervisor(n_workers, spares=spares, timeout=fault_plan.timeout)
            if fault_plan is not None
            else None
        )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_meta = tuple(checkpoint_meta)
        #: master-observed recovery narrative (detections, adoptions, joins).
        self.fault_events: list[str] = []
        self._ft_stash: list = []
        self._ft_token = 0
        self._ft_round = 0
        self._ft_suspect: dict[int, int] = {}
        # outputs, populated by run():
        self.theory = Theory()
        self.epoch_logs: list[EpochLog] = []
        self.remaining: int = total_pos
        #: the epoch in progress (None at an epoch boundary).
        self._log: Optional[EpochLog] = None
        self._resume = resume
        if resume is not None:
            from repro.fault.checkpoint import epoch_logs_from_records, verify_config

            verify_config(resume, config.signature())
            self.theory = Theory(resume.theory)
            self.epoch_logs = epoch_logs_from_records(resume.epoch_logs)
            self.remaining = resume.remaining

    @property
    def epochs(self) -> int:
        return len(self.epoch_logs)

    def _workers(self) -> list[int]:
        """The logical workers ``1..p`` — also their hosts, until a
        recovery or a join rewires ``self.ft.routing``."""
        return list(range(1, self.n_workers + 1))

    # -- checkpointing -----------------------------------------------------------
    def _write_checkpoint(self, **state) -> None:
        """Snapshot the run at an epoch boundary; ``state`` holds the
        strategy's own fields (stall counter, seed-pool masks, RNG)."""
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
        snapshot = CheckpointState(
            version=CHECKPOINT_VERSION,
            algo=self.ALGO,
            seed=self.seed,
            n_workers=self.n_workers,
            total_pos=self.total_pos,
            epoch=self.epochs,
            remaining=max(self.remaining, 0),
            theory=tuple(self.theory),
            epoch_logs=records_from_epoch_logs(self.epoch_logs),
            config_sig=self.config.signature(),
            meta=self.checkpoint_meta,
            **state,
        )
        save_checkpoint(checkpoint_path(self.checkpoint_dir, self.epochs), snapshot)

    # -- collective steps (Fig. 5) ---------------------------------------------------
    def _load(self, ctx: ProcContext):
        """Line 3: ``load_examples`` (partition id == rank).  A resumed
        run ships the accepted-rule history instead: at an epoch boundary
        the adoption payload *is* the resume payload."""
        for k in self._workers():
            if self._resume is not None:
                payload = self._ft_adopt_payload(k)
            else:
                payload = LoadExamples(partition_id=k)
            yield ctx.send(k, payload, tag=Tag.LOAD_EXAMPLES)

    def _open_epoch(self) -> EpochLog:
        log = self._log = EpochLog(epoch=self.epochs + 1, bag_size=0)
        return log

    def _pipeline_round(self, ctx: ProcContext, width, log: EpochLog):
        """Lines 6-9: start ``p`` pipelines, collect every pipeline's rules
        (renamed-apart variants collapse to one bag slot via their variant
        key)."""
        if self.ft is None:
            for k in self._workers():
                yield ctx.send(k, StartPipeline(width=width), tag=Tag.START_PIPELINE)
            rule_sets = []
            for _ in self._workers():
                msg = yield ctx.recv(tag=Tag.RULES)
                rule_sets.append(msg.payload.rules)
        else:
            epoch = log.epoch

            def start(origins):
                for origin in origins:
                    yield ctx.send(
                        self.ft.host_of(origin),
                        StartPipeline(width=width, origin=origin, epoch=epoch),
                        tag=Tag.START_PIPELINE,
                    )

            def classify(msg):
                p = msg.payload
                if isinstance(p, PipelineRules) and p.epoch == epoch:
                    return (p.origin, p.rules)
                return None

            yield from start(self._workers())
            got = yield from self._ft_gather(ctx, self._workers(), classify, start)
            rule_sets = [got[origin] for origin in sorted(got)]
        bag = ClauseBag()
        for rules in rule_sets:
            for clause in rules:
                bag.add(clause)
        log.bag_size = bag.reported_size
        return bag

    def _eval_round(self, ctx: ProcContext, clauses: list[Clause]):
        """Lines 10-11 / 18-19: every worker evaluates ``clauses`` on its
        subset; returns the summed per-clause ``(pos, neg)``."""
        rules = tuple(clauses)
        if self.ft is None:
            yield ctx.bcast(EvaluateRequest(rules=rules), tag=Tag.EVALUATE, dsts=self._workers())
            replies = []
            for _ in self._workers():
                msg = yield ctx.recv(tag=Tag.RESULT)
                replies.append(msg.payload.stats)
        else:
            self._ft_round += 1
            rnd = self._ft_round
            request = EvaluateRequest(rules=rules, round=rnd)

            def ask(logicals):
                for host in sorted({self.ft.host_of(l) for l in logicals}):
                    yield ctx.send(host, request, tag=Tag.EVALUATE)

            def classify(msg):
                p = msg.payload
                if isinstance(p, EvaluateResult) and p.round == rnd:
                    return (p.rank, p.stats)
                return None

            yield from ask(self._workers())
            got = yield from self._ft_gather(ctx, self._workers(), classify, ask)
            replies = [got[logical] for logical in sorted(got)]
        totals = [[0, 0] for _ in clauses]
        for stats in replies:
            for i, rs in enumerate(stats):
                totals[i][0] += rs.pos
                totals[i][1] += rs.neg
        # Aggregation cost is linear in bag size.
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        return [(p, n) for p, n in totals]

    def _mark_covered(self, ctx: ProcContext, rule: Clause):
        """``mark_covered`` goes to every host that holds a logical worker."""
        dsts = self._workers() if self.ft is None else self.ft.serving_hosts()
        yield ctx.bcast(MarkCovered(rule=rule), tag=Tag.MARK_COVERED, dsts=dsts)

    def _consume_bag(self, ctx: ProcContext, bag: ClauseBag, log: EpochLog):
        """Lines 10-22: evaluate and filter the bag, accept its best rule,
        and again on what is left, until nothing good remains."""
        while bag:
            clauses = bag.clauses()
            totals = yield from self._eval_round(ctx, clauses)
            stats = dict(zip(clauses, totals))
            drop_not_good(bag, stats, self.config)
            if not bag:
                break
            best = pick_best(bag, stats)
            bag.discard(best)
            self.theory.add(best)
            log.accepted.append(best)
            covered = stats[best][0]
            log.pos_covered += covered
            self.remaining -= covered
            yield from self._mark_covered(ctx, best)

    def _end_epoch(self, ctx: ProcContext, log: EpochLog):
        """Close the epoch; under a fault plan, pulse every serving host
        (liveness + the cache counters of ``EpochLog``)."""
        self.epoch_logs.append(log)
        self._log = None
        if self.ft is None:
            return
        self._ft_token += 1
        token = self._ft_token

        def ping(hosts):
            for h in sorted(hosts):
                if h not in self.ft.dead:
                    yield ctx.send(h, Ping(token=token), tag=Tag.PING)

        def classify(msg):
            # Token-checked: a slow Pong answering an earlier liveness
            # probe must not stand in for this epoch's cache counters.
            if isinstance(msg.payload, Pong) and msg.payload.token == token:
                return (msg.src, (msg.payload.cache_hits, msg.payload.cache_misses))
            return None

        def prune(missing):
            return [h for h in missing if h in self.ft.dead]

        targets = set(self.ft.serving_hosts())
        yield from ping(targets)
        got = yield from self._ft_gather(
            ctx, targets, classify, ping, prune=prune, logical_keys=False
        )
        live = [v for h, v in got.items() if h not in self.ft.dead]
        log.cache_hits = sum(v[0] for v in live)
        log.cache_misses = sum(v[1] for v in live)

    def _stop(self, ctx: ProcContext):
        """Stop every provisioned host — including declared-dead ones that
        may in fact be alive (false positives keep running otherwise)."""
        dsts = self._workers() if self.ft is None else self.ft.hosts
        yield ctx.bcast(Stop(), tag=Tag.STOP, dsts=dsts)

    # -- healing: adoption ---------------------------------------------------------
    def _ft_history(self):
        """``(completed, current, draw_seeds, draw_current, epoch)``: the
        deterministic replay payload at the current protocol point.

        The default is kills only — right for workers that never draw
        pipeline seeds from their shard's stream (coverage-parallel: the
        master owns the seed pool; independent: the local covering loop
        derives its own stream).
        """
        completed = tuple(tuple(log.accepted) for log in self.epoch_logs)
        current = tuple(self._log.accepted) if self._log is not None else ()
        return (completed, current, False, False, self.epochs + 1)

    def _ft_note(self, text: str) -> None:
        self.fault_events.append(text)

    def _ft_adopt_payload(self, logical: int) -> AdoptWorker:
        completed, current, draw_seeds, draw_current, epoch = self._ft_history()
        return AdoptWorker(
            virtual_rank=logical,
            partition_id=logical,
            epoch=epoch,
            completed=completed,
            current=current,
            draw_seeds=draw_seeds,
            draw_current=draw_current,
        )

    def _ft_move(self, ctx: ProcContext, moves, verb: str):
        """Ship the adoption payload of every ``(logical, new_host)`` move."""
        for logical, new_host in moves:
            yield ctx.send(new_host, self._ft_adopt_payload(logical), tag=Tag.LOAD_EXAMPLES)
            self._ft_note(f"worker {logical} {verb} host {new_host}")

    def _ft_bcast_routing(self, ctx: ProcContext):
        yield ctx.bcast(
            UpdateRouting(routing=self.ft.routing_table()),
            tag=Tag.ROUTING,
            dsts=self.ft.serving_hosts(),
        )

    def _ft_recover(self, ctx: ProcContext, dead_hosts):
        """Declare hosts dead, rebuild their logical workers elsewhere."""
        for h in sorted(dead_hosts):
            self.ft.declare_dead(h)
            self._ft_note(f"epoch {self.epochs + 1}: host {h} declared dead")
        moves = self.ft.reassign(dead_hosts)
        yield from self._ft_move(ctx, moves, "adopted by")
        if moves:
            yield from self._ft_bcast_routing(ctx)
            # Zero-cost marker (0 ops = 0 virtual seconds): stamps the
            # recovery event into the activity trace so `repro trace`
            # shows *when* the master rebuilt workers, on every backend.
            yield ctx.compute(0, label="recover")

    def _admit_joins(self, ctx: ProcContext):
        """Elastic grow: activate spare hosts scheduled to join at the
        epoch about to start (a plan-free pool never grows)."""
        if self.ft is None:
            return
        epoch = self.epochs + 1
        moved = False
        for ev in self.fault_plan.joins_at(epoch):
            if ev.rank in self.ft.dead or ev.rank not in self.ft.hosts:
                continue
            moves = self.ft.admit(ev.rank)
            self._ft_note(f"epoch {epoch}: host {ev.rank} joined the pool")
            yield from self._ft_move(ctx, moves, "migrated to")
            moved = moved or bool(moves)
        if moved:
            yield from self._ft_bcast_routing(ctx)

    def _ft_reinforce(self, ctx: ProcContext, missing_logicals):
        """Re-send adoption + routing state for stalled reassigned workers.

        The one-shot AdoptWorker/UpdateRouting control messages are
        themselves subject to injected message loss; when a collective
        keeps missing replies for a logical worker that lives away from
        its home rank, the master re-ships the (idempotent) adoption
        payload and the routing table before re-requesting the work.
        """
        moved = [
            l for l in missing_logicals if l in self.ft.routing and self.ft.host_of(l) != l
        ]
        if not moved:
            return
        for l in moved:
            yield ctx.send(self.ft.host_of(l), self._ft_adopt_payload(l), tag=Tag.LOAD_EXAMPLES)
        yield from self._ft_bcast_routing(ctx)

    # -- healing: detection --------------------------------------------------------
    def _ft_probe(self, ctx: ProcContext):
        """Ping every serving host; declare silent ones dead and recover.

        Any message received from a host during the probe window counts
        as proof of life; non-Pong messages are stashed for the outer
        gather, so nothing is lost.
        """
        targets = set(self.ft.serving_hosts())
        if not targets:
            raise RecoveryError("no live hosts to probe")
        self._ft_token += 1
        yield ctx.bcast(Ping(token=self._ft_token), tag=Tag.PING, dsts=sorted(targets))
        seen: set[int] = set()
        while not targets <= seen:
            msg = yield ctx.recv(timeout=self.ft.timeout)
            if msg is None:
                break
            if msg.src in self.ft.dead:
                continue
            seen.add(msg.src)
            if not isinstance(msg.payload, Pong):
                self._ft_stash.append(msg)
        for h in targets & seen:
            self._ft_suspect.pop(h, None)
        dead = set()
        for h in sorted(targets - seen):
            self._ft_suspect[h] = self._ft_suspect.get(h, 0) + 1
            if self._ft_suspect[h] >= self.SUSPECT_ROUNDS:
                dead.add(h)
                self._ft_suspect.pop(h, None)
        if dead:
            yield from self._ft_recover(ctx, dead)

    def _ft_gather(self, ctx: ProcContext, expected, classify, reissue, prune=None, logical_keys=True):
        """Collect one classified payload per expected key, healing holes.

        ``classify(msg) -> (key, value) | None``; unclassified messages
        from live hosts are dropped (stale protocol traffic).  On a
        receive timeout the pool is probed, dead hosts recovered, and
        ``reissue(missing_keys)`` (a generator) re-requests the holes —
        requests and replies are idempotent/deduplicated by key.
        ``prune(missing_keys)`` names keys that stopped being expected
        (host-keyed collectives drop hosts that died mid-gather;
        logical-keyed ones never shrink, their workers are reassigned and
        — via ``logical_keys`` — their adoption state reinforced against
        lost control messages).
        """
        expected = set(expected)
        got: dict = {}
        dry = 0
        while set(got) < expected:
            if self._ft_stash:
                msg = self._ft_stash.pop(0)
            else:
                msg = yield ctx.recv(timeout=self.ft.timeout)
            if msg is None:
                dry += 1
                if dry > self.MAX_RECOVERY_ROUNDS:
                    raise RecoveryError(
                        f"collective never completed: missing {sorted(expected - set(got))}"
                    )
                yield from self._ft_probe(ctx)
                missing = expected - set(got)
                # Drain anything the probe stashed before re-requesting.
                stashed, self._ft_stash = self._ft_stash, []
                for m in stashed:
                    c = classify(m)
                    if c is not None and c[0] in missing and c[0] not in got:
                        got[c[0]] = c[1]
                missing = expected - set(got)
                if prune is not None and missing:
                    expected -= set(prune(sorted(missing)))
                    missing = expected - set(got)
                if missing:
                    self._ft_note(f"reissuing {sorted(missing)} after detection timeout")
                    if logical_keys:
                        yield from self._ft_reinforce(ctx, sorted(missing))
                    yield from reissue(sorted(missing))
                continue
            dry = 0
            if msg.src in self.ft.dead:
                continue
            c = classify(msg)
            if c is None:
                continue
            key, value = c
            if key in expected and key not in got:
                got[key] = value
        return got


class P2Master(Master):
    """Rank-0 master driving the worker ring."""

    ALGO = "p2mdie"
    #: consecutive epochs without an accepted rule before learning stops.
    STALL_LIMIT = 3

    def __init__(
        self,
        n_workers: int,
        total_pos: int,
        config: ILPConfig,
        width: Optional[int] = ...,
        max_epochs: Optional[int] = None,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        spares: int = 0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_meta: tuple = (),
        resume=None,
    ):
        super().__init__(
            n_workers,
            total_pos,
            config,
            seed=seed,
            fault_plan=fault_plan,
            spares=spares,
            checkpoint_dir=checkpoint_dir,
            checkpoint_meta=checkpoint_meta,
            resume=resume,
        )
        self.width = config.pipeline_width if width is ... else width
        self.max_epochs = max_epochs
        self._stall0 = resume.stall if resume is not None else 0

    # -- process body ----------------------------------------------------------------
    def run(self, ctx: ProcContext):
        yield from self._load(ctx)
        stall = self._stall0
        while self.remaining > 0:
            if self.max_epochs is not None and self.epochs >= self.max_epochs:
                break
            yield from self._admit_joins(ctx)
            log = self._open_epoch()
            bag = yield from self._pipeline_round(ctx, self.width, log)
            yield from self._consume_bag(ctx, bag, log)
            yield from self._end_epoch(ctx, log)
            stall = 0 if log.accepted else stall + 1
            self._write_checkpoint(stall=stall)
            if not log.accepted and stall >= self.STALL_LIMIT:
                break
        yield from self._stop(ctx)

    def _ft_history(self):
        completed, current, _, _, _ = super()._ft_history()
        # P² workers draw one pipeline seed per epoch; mid-epoch, the
        # lost worker had already drawn this epoch's and applied the
        # kills accepted so far.
        mid_epoch = self._log is not None
        return (completed, current, True, mid_epoch, self.epochs + 1 if mid_epoch else self.epochs)
