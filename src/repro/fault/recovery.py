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

This module holds the state and the policy (shards, seed draws, replay,
the pool supervisor); the collectives that speak the protocol live next
to its messages, in :class:`repro.parallel.master.Master`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.ilp.bottom import SaturationError, build_bottom_cached
from repro.ilp.mdie import select_seed
from repro.ilp.store import ExampleStore
from repro.util.rng import make_rng

__all__ = [
    "RecoveryError",
    "WorkerShard",
    "draw_seed",
    "rebuild_shard",
    "PoolSupervisor",
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


def draw_seed(shard: WorkerShard) -> Optional[int]:
    """Draw (and mark tried) the next pipeline seed for one shard.

    A shard's pool: prefer alive-and-untried seeds; when every alive seed
    has been tried, allow a fresh pass (global coverage changed since),
    bounded by the master's stall detector.  The draw itself is
    :func:`repro.ilp.mdie.select_seed`, on the shard's own RNG stream.
    """
    store = shard.store
    candidates = store.alive & ~shard.tried_mask
    if not candidates and store.alive:
        shard.tried_mask = 0
        candidates = store.alive
    i = select_seed(candidates, shard.rng)
    if i is not None:
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


def rebuild_shard(msg, partition, engine, seed: int) -> WorkerShard:
    """Reconstruct a logical worker from an :class:`AdoptWorker` payload
    (shared data + accepted history).

    Replays, in order: for each completed epoch one seed draw (when the
    strategy draws seeds) and that epoch's kills; then — mid-epoch
    adoption — the in-progress epoch's draw and its kills so far.  The
    result is bit-identical to the lost worker's state at the current
    protocol point (modulo the evaluation cache, which restarts cold —
    a cost, never a semantic difference).
    """
    store = ExampleStore(partition.pos, partition.neg)
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
            draw_seed(shard)
        kill(epoch_rules)
    if msg.draw_seeds and msg.draw_current:
        shard.pending_epoch = msg.epoch
        shard.pending_seed = draw_seed(shard)
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
    def serving_hosts(self) -> list[int]:
        """Hosts currently hosting at least one logical worker."""
        return sorted({h for h in self.routing.values() if h not in self.dead})

    def idle_spares(self) -> list[int]:
        serving = set(self.routing.values())
        return [h for h in self.hosts if h not in self.dead and h not in serving]

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
