"""Self-healing protocol: logical workers, failure detection, replay.

The key idea that makes recovery *exact* (the healed run learns the very
same theory as the fault-free run) is the split between **logical
workers** and **physical hosts**:

* a *logical worker* ``1..p`` owns an example partition, a seeded RNG
  stream, a tried-seed mask and an evaluation-cache/liveness store — all
  of it a deterministic function of ``(partition, seed, accepted-rule
  history)``;
* a *physical host* is an OS process / simulated rank that *hosts* one
  or more logical workers (a :class:`WorkerShard` each).

When a host dies, the master rebuilds its logical workers on surviving
hosts by shipping the accepted-rule history (:class:`AdoptWorker`) and
letting the adopter **replay** it against the shared-filesystem
partition: one seed draw per epoch, then the kills of that epoch's
accepted rules.  Because every draw and kill is replayed in the original
order, the rebuilt shard is bit-identical to the lost state — pipelines
restarted on it produce the same rules, and evaluation rounds produce
the same global totals, so the learned theory cannot change.

Failure detection is timeout + heartbeat: the master's collective waits
use timed receives; on expiry it pings every host still owing a reply
and declares silent ones dead.  A false positive (a straggler declared
dead) is safe: its logical workers are rebuilt elsewhere with identical
state, its late messages are discarded as stale, and the learned theory
is unchanged — only time and communication are wasted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.cluster.message import Tag
from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.store import ExampleStore
from repro.util.rng import make_rng

# The message classes are imported lazily (inside the methods that build
# or match them): importing them at module level would re-enter the
# repro.parallel package while it is initializing — that package's
# strategy modules import this one.

__all__ = [
    "RecoveryError",
    "WorkerShard",
    "draw_seed",
    "rebuild_shard",
    "PoolSupervisor",
    "FTMasterMixin",
]


class RecoveryError(RuntimeError):
    """The pool cannot make progress (no live hosts / detection diverged)."""


# -- logical worker state ----------------------------------------------------------


@dataclass
class WorkerShard:
    """One logical worker's complete learning state, hosted anywhere."""

    virtual_rank: int
    store: ExampleStore
    rng: random.Random
    tried_mask: int = 0
    #: epoch whose pipeline seed has been drawn (FT pipeline bookkeeping).
    pending_epoch: Optional[int] = None
    pending_seed: Optional[int] = None
    pending_bottom: object = None
    bottom_ready: bool = False
    #: lazily drawn stratified sampler (sampled-coverage mode); derived
    #: deterministically from (run seed, virtual rank), so an adopting
    #: host redraws the lost host's exact masks.
    sampler: object = None


def draw_seed(shard: WorkerShard, config) -> Optional[int]:
    """Draw (and mark tried) the next pipeline seed for one shard.

    Exactly the historical worker policy: prefer alive-and-untried seeds;
    when every alive seed has been tried, allow a fresh pass (global
    coverage changed since), bounded by the master's stall detector.
    """
    store = shard.store
    candidates = store.alive & ~shard.tried_mask
    if not candidates and store.alive:
        shard.tried_mask = 0
        candidates = store.alive
    idxs = [i for i in range(store.n_pos) if (candidates >> i) & 1]
    if not idxs:
        return None
    i = shard.rng.choice(idxs) if config.select_seed_randomly else idxs[0]
    shard.tried_mask |= 1 << i
    return i


def saturate_seed(shard: WorkerShard, engine, modes, config):
    """Build (once) the bottom clause of the shard's pending seed."""
    if shard.bottom_ready:
        return shard.pending_bottom
    bottom = None
    if shard.pending_seed is not None:
        try:
            bottom = build_bottom_cached(shard.store.pos[shard.pending_seed], engine, modes, config)
        except SaturationError:
            bottom = None
    shard.pending_bottom = bottom
    shard.bottom_ready = True
    return bottom


def rebuild_shard(msg, partition, engine, config, seed: int) -> WorkerShard:
    """Reconstruct a logical worker from an :class:`AdoptWorker` payload
    (shared data + accepted history).

    Replays, in order: for each completed epoch one seed draw (when the
    strategy draws seeds) and that epoch's kills; then — mid-epoch
    adoption — the in-progress epoch's draw and its kills so far.  The
    result is bit-identical to the lost worker's state at the current
    protocol point (modulo the evaluation cache, which restarts cold —
    a cost, never a semantic difference).
    """
    store = ExampleStore(partition.pos, partition.neg, reorder_body=config.reorder_body)
    shard = WorkerShard(
        virtual_rank=msg.virtual_rank,
        store=store,
        rng=make_rng(seed, "worker", msg.virtual_rank),
    )

    def kill(clauses) -> None:
        for clause in clauses:
            cs = store.evaluate(engine, clause)
            store.kill(cs.pos_bits)
            shard.tried_mask &= store.alive

    for epoch_rules in msg.completed:
        if msg.draw_seeds:
            draw_seed(shard, config)
        kill(epoch_rules)
    if msg.draw_seeds and msg.draw_current:
        shard.pending_epoch = msg.epoch
        shard.pending_seed = draw_seed(shard, config)
        shard.bottom_ready = False
    kill(msg.current)
    return shard


# -- master-side pool bookkeeping --------------------------------------------------


class PoolSupervisor:
    """Liveness, routing and adoption policy over the physical pool.

    ``hosts`` are the physical worker ranks (primaries ``1..p`` plus any
    provisioned spares ``p+1..p+s``); logical workers are always
    ``1..p``.  Spares idle until they adopt a dead host's shards or are
    admitted by an elastic-join event.
    """

    def __init__(self, n_logical: int, spares: int = 0, timeout: float = 10.0):
        self.n = n_logical
        self.timeout = timeout
        self.hosts: list[int] = list(range(1, n_logical + spares + 1))
        self.routing: dict[int, int] = {l: l for l in range(1, n_logical + 1)}
        self.dead: set[int] = set()
        #: hosts admitted to active duty (primaries now, spares on join/adopt).
        self.active: set[int] = set(range(1, n_logical + 1))

    # -- queries ----------------------------------------------------------------
    def live_hosts(self) -> list[int]:
        return [h for h in self.hosts if h not in self.dead]

    def serving_hosts(self) -> list[int]:
        """Hosts currently hosting at least one logical worker."""
        return sorted({h for h in self.routing.values() if h not in self.dead})

    def idle_spares(self) -> list[int]:
        serving = set(self.routing.values())
        return [h for h in self.hosts if h not in self.dead and h not in serving]

    def logicals_on(self, host: int) -> list[int]:
        return sorted(l for l, h in self.routing.items() if h == host)

    def host_of(self, logical: int) -> int:
        return self.routing[logical]

    def routing_table(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.routing.items()))

    # -- mutations --------------------------------------------------------------
    def declare_dead(self, host: int) -> None:
        self.dead.add(host)
        self.active.discard(host)

    def reassign(self, dead_hosts) -> list[tuple[int, int]]:
        """Move every logical worker off the named dead hosts.

        Deterministic policy: idle live spares first (standby
        replacement), then live serving hosts, round-robin in rank
        order.  Returns ``(logical, new_host)`` moves.
        """
        dead_hosts = set(dead_hosts)
        orphans = sorted(l for l, h in self.routing.items() if h in dead_hosts)
        if not orphans:
            return []
        targets = self.idle_spares() + self.serving_hosts()
        targets = [h for h in targets if h not in self.dead]
        if not targets:
            raise RecoveryError("no live hosts left to adopt orphaned workers")
        moves = []
        for i, l in enumerate(orphans):
            h = targets[i % len(targets)]
            self.routing[l] = h
            self.active.add(h)
            moves.append((l, h))
        return moves

    def admit(self, host: int) -> list[tuple[int, int]]:
        """Elastic grow: activate a spare and rebalance round-robin.

        Returns the ``(logical, new_host)`` moves (only changed slots).
        """
        if host in self.dead or host not in self.hosts:
            return []
        self.active.add(host)
        pool = sorted(self.active - self.dead)
        moves = []
        for i, l in enumerate(sorted(self.routing)):
            h = pool[i % len(pool)]
            if self.routing[l] != h:
                self.routing[l] = h
                moves.append((l, h))
        return moves


# -- master-side protocol ----------------------------------------------------------


class FTMasterMixin:
    """Generator helpers every fault-tolerant master shares.

    Expects the concrete master to provide:

    * ``self.ft`` — a :class:`PoolSupervisor` (or None: protocol off);
    * ``self.fault_plan`` — the active :class:`FaultPlan` (joins);
    * ``self.fault_events`` — a list collecting human-readable events;
    * ``self._ft_history()`` — ``(completed, current, draw_seeds,
      draw_current, epoch)`` describing the deterministic replay payload
      at the current protocol point.
    """

    #: consecutive empty detection rounds before giving up.
    MAX_RECOVERY_ROUNDS = 25
    #: consecutive silent probes before a host is declared dead — a
    #: single lost/late heartbeat exchange must not kill a live host
    #: (fatal when it is the last one standing).
    SUSPECT_ROUNDS = 2

    def _ft_init(self) -> None:
        self._ft_stash: list = []
        self._ft_token = 0
        self._ft_round = 0
        self._ft_suspect: dict[int, int] = {}

    def _ft_note(self, text: str) -> None:
        self.fault_events.append(text)

    def _ft_logicals(self) -> set[int]:
        return set(range(1, self.ft.n + 1))

    # -- adoption ---------------------------------------------------------------
    def _ft_adopt_payload(self, logical: int):
        from repro.parallel.messages import AdoptWorker

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

    def _ft_recover(self, ctx, dead_hosts):
        """Declare hosts dead, rebuild their logical workers elsewhere."""
        from repro.parallel.messages import UpdateRouting

        for h in sorted(dead_hosts):
            self.ft.declare_dead(h)
            self._ft_note(f"epoch {self.epochs + 1}: host {h} declared dead")
        moves = self.ft.reassign(dead_hosts)
        for logical, new_host in moves:
            yield ctx.send(new_host, self._ft_adopt_payload(logical), tag=Tag.LOAD_EXAMPLES)
            self._ft_note(f"worker {logical} adopted by host {new_host}")
        if moves:
            yield ctx.bcast(
                UpdateRouting(routing=self.ft.routing_table()),
                tag=Tag.ROUTING,
                dsts=self.ft.serving_hosts(),
            )
            # Zero-cost marker (0 ops = 0 virtual seconds): stamps the
            # recovery event into the activity trace so `repro trace`
            # shows *when* the master rebuilt workers, on every backend.
            yield ctx.compute(0, label="recover")

    def _ft_admit_joins(self, ctx, epoch: int):
        """Elastic grow: activate spare hosts scheduled to join now."""
        from repro.parallel.messages import UpdateRouting

        if self.fault_plan is None:
            return
        all_moves: list[tuple[int, int]] = []
        for ev in self.fault_plan.joins_at(epoch):
            if ev.rank in self.ft.dead or ev.rank not in self.ft.hosts:
                continue
            moves = self.ft.admit(ev.rank)
            self._ft_note(f"epoch {epoch}: host {ev.rank} joined the pool")
            for logical, new_host in moves:
                yield ctx.send(
                    new_host, self._ft_adopt_payload(logical), tag=Tag.LOAD_EXAMPLES
                )
                self._ft_note(f"worker {logical} migrated to host {new_host}")
            all_moves.extend(moves)
        if all_moves:
            yield ctx.bcast(
                UpdateRouting(routing=self.ft.routing_table()),
                tag=Tag.ROUTING,
                dsts=self.ft.serving_hosts(),
            )

    def _ft_reinforce(self, ctx, missing_logicals):
        """Re-send adoption + routing state for stalled reassigned workers.

        The one-shot AdoptWorker/UpdateRouting control messages are
        themselves subject to injected message loss; when a collective
        keeps missing replies for a logical worker that lives away from
        its home rank, the master re-ships the (idempotent) adoption
        payload and the routing table before re-requesting the work.
        """
        from repro.parallel.messages import UpdateRouting

        moved = [
            l
            for l in missing_logicals
            if l in self.ft.routing and self.ft.host_of(l) != l
        ]
        if not moved:
            return
        for l in moved:
            yield ctx.send(self.ft.host_of(l), self._ft_adopt_payload(l), tag=Tag.LOAD_EXAMPLES)
        yield ctx.bcast(
            UpdateRouting(routing=self.ft.routing_table()),
            tag=Tag.ROUTING,
            dsts=self.ft.serving_hosts(),
        )

    # -- detection --------------------------------------------------------------
    def _ft_probe(self, ctx):
        """Ping every serving host; declare silent ones dead and recover.

        Any message received from a host during the probe window counts
        as proof of life; non-Pong messages are stashed for the outer
        gather, so nothing is lost.
        """
        from repro.parallel.messages import Ping, Pong

        targets = set(self.ft.serving_hosts())
        if not targets:
            raise RecoveryError("no live hosts to probe")
        self._ft_token += 1
        token = self._ft_token
        yield ctx.bcast(Ping(token=token), tag=Tag.PING, dsts=sorted(targets))
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

    # -- generic collective gather ----------------------------------------------
    def _ft_gather(self, ctx, expected, classify, reissue, prune=None, logical_keys=True):
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

    # -- shared collectives ------------------------------------------------------
    def _ft_pipeline_round(self, ctx, width, epoch: int):
        """Run all p pipelines for one epoch; returns {origin: rules}."""
        from repro.parallel.messages import FTPipelineRules, RestartPipeline

        def start(origins):
            for origin in origins:
                yield ctx.send(
                    self.ft.host_of(origin),
                    RestartPipeline(origin=origin, width=width, epoch=epoch),
                    tag=Tag.START_PIPELINE,
                )

        def classify(msg):
            p = msg.payload
            if isinstance(p, FTPipelineRules) and p.epoch == epoch:
                return (p.origin, p.rules)
            return None

        yield from start(sorted(self._ft_logicals()))
        return (yield from self._ft_gather(ctx, self._ft_logicals(), classify, start))

    def _ft_eval_round(self, ctx, clauses):
        """Globally evaluate ``clauses``; returns per-clause (pos, neg)."""
        from repro.parallel.messages import FTEvaluateRequest, FTEvaluateResult

        self._ft_round += 1
        rnd = self._ft_round
        request = FTEvaluateRequest(round=rnd, rules=tuple(clauses))

        def ask(logicals):
            for host in sorted({self.ft.host_of(l) for l in logicals}):
                yield ctx.send(host, request, tag=Tag.EVALUATE)

        def classify(msg):
            p = msg.payload
            if isinstance(p, FTEvaluateResult) and p.round == rnd:
                return (p.rank, p.stats)
            return None

        yield from ask(sorted(self._ft_logicals()))
        got = yield from self._ft_gather(ctx, self._ft_logicals(), classify, ask)
        totals = [[0, 0] for _ in clauses]
        for logical in sorted(got):
            for i, rs in enumerate(got[logical]):
                totals[i][0] += rs.pos
                totals[i][1] += rs.neg
        yield ctx.compute(len(clauses) + 1, label="aggregate")
        return [(p, n) for p, n in totals]

    def _ft_epoch_pulse(self, ctx, log):
        """End-of-epoch heartbeat: liveness + cache-counter collection."""
        from repro.parallel.messages import Ping, Pong

        self._ft_token += 1
        token = self._ft_token

        def ping(hosts):
            for h in sorted(hosts):
                yield ctx.send(h, Ping(token=token), tag=Tag.PING)

        def classify(msg):
            # Token-checked: a slow Pong answering an earlier liveness
            # probe must not stand in for this epoch's cache counters.
            if isinstance(msg.payload, Pong) and msg.payload.token == token:
                return (msg.src, (msg.payload.cache_hits, msg.payload.cache_misses))
            return None

        targets = set(self.ft.serving_hosts())
        yield from ping(targets)

        def reissue(missing):
            yield from ping([h for h in missing if h not in self.ft.dead])

        def prune(missing):
            return [h for h in missing if h in self.ft.dead]

        got = yield from self._ft_gather(
            ctx, targets, classify, reissue, prune=prune, logical_keys=False
        )
        live = {h: v for h, v in got.items() if h not in self.ft.dead}
        log.cache_hits = sum(v[0] for v in live.values())
        log.cache_misses = sum(v[1] for v in live.values())