"""Batched and streamed coverage queries against registered theories.

Theory *application* is orders of magnitude cheaper than theory
*learning*, but the naive per-example path (``predicts``: rename every
clause, unify, prove — per example) still re-pays two setup costs on
every call: rebuilding the dataset's knowledge base/engine, and renaming
each clause apart.  The query engine amortizes both:

* a **prepared-theory cache**: the first query against ``(name,
  version)`` takes the dataset named by the record's provenance from
  :func:`repro.service.jobs.shared_dataset` (the cache learning jobs use
  too, so a theory is queried on the KB its job learned on), and builds
  an :class:`~repro.logic.engine.Engine` and the clause list once; every
  later batch reuses them (KB indexes and the engine's ground-goal memo
  stay warm across batches).  It keeps the :data:`PREPARED_CACHE_CAP`
  most recently used entries, as the dataset cache does, and a registry
  gc drops the entries of the versions it removed (:meth:`QueryEngine.forget`);
* **clause-by-clause evaluation**: a batch is evaluated via
  :func:`repro.ilp.coverage.theory_covered_bits` — one coverage plan per
  clause, kept in the KB's plan table that the jobs learning on that KB
  share, so compiled at most once (or one
  ``rename_apart`` per clause per batch) instead of work per example, and
  each clause only tests the examples no earlier clause covered;
* **one loop over spans**: :meth:`QueryEngine.query` cuts a batch into
  the contiguous spans of :func:`repro.parallel.partition.shard_spans`
  and runs them *one after another* on the prepared theory's one engine
  — ``shards=k`` is evaluation granularity, not parallelism (worker
  threads over a pure-Python engine never scaled under the GIL; the last
  measurements are in ``docs/performance.md``).  A plain query is the
  one-span case.  Between two spans the theory's lock is free and the
  request deadline is checked; an ``on_frame`` callback is handed each
  span's result as soon as it is evaluated (the server streams it), so
  a consumer sees first results after ~1/k of the batch work, and a
  callback that raises stops the batch before its next span.

**Determinism invariant**: the covered bitset a batch returns is a pure
per-example function of (clause list, KB, engine budget) — independent
of span count and transport — so spanned and streamed answers are
bit-identical to the one-span answer (pinned by
``tests/service/test_query.py`` and ``tests/service/test_streaming.py``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

# Unused: misses build in jobs.shared_dataset, but bench/tracing.py rebinds this name.
from repro.datasets import make_dataset  # noqa: F401
from repro.ilp.coverage import popcount, theory_covered_bits
from repro.logic.clause import Theory
from repro.logic.engine import Engine
from repro.logic.terms import Term, is_ground
from repro.parallel.partition import shard_spans
from repro.service.errors import DeadlineExceeded, Unavailable
from repro.service.jobs import shared_dataset

__all__ = [
    "PREPARED_CACHE_CAP",
    "QueryEngine",
    "QueryResult",
    "PreparedTheory",
    "ShardResult",
]

#: prepared theories a :class:`QueryEngine` keeps, least recently used
#: evicted first.
PREPARED_CACHE_CAP = 8


@dataclass(frozen=True)
class QueryResult:
    """Coverage of one query batch."""

    #: bit i set ⇔ examples[i] is covered (predicted positive).
    covered: int
    #: number of examples in the batch.
    n: int
    #: engine operations spent answering the batch (summed over spans).
    ops: int
    #: spans the batch was evaluated in.
    shards: int = 1

    @property
    def n_covered(self) -> int:
        return popcount(self.covered)

    def decisions(self) -> list[bool]:
        """Per-example predictions, batch order."""
        return [bool((self.covered >> i) & 1) for i in range(self.n)]


@dataclass(frozen=True)
class ShardResult:
    """One span's slice of a query batch, handed to ``on_frame``.

    ``covered`` is local to the span — bit ``i`` refers to example
    ``lo + i`` — so a consumer reassembles the batch bitset as
    ``merged |= covered << lo`` whatever order frames are applied in.
    """

    shard: int
    lo: int
    n: int
    covered: int
    ops: int

    def decisions(self) -> list[bool]:
        """Per-example predictions for this span, span order."""
        return [bool((self.covered >> i) & 1) for i in range(self.n)]


@dataclass
class PreparedTheory:
    """A theory bound to a warm engine over its dataset's KB.

    One prepared entry has one engine, and the engine's per-query
    mutable state (op budget counter, ``last_exhausted``) must not
    interleave across threads — so every *span* evaluated on it holds
    the entry's lock.  A batch takes and releases the lock once per span,
    which is where concurrent requests against the *same* theory get
    their turn.  Different theories (and learning jobs) still overlap
    freely.
    """

    theory: Theory
    engine: Engine
    #: batches answered from this entry (cache effectiveness counter).
    batches: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()


def check_ground(examples: Sequence[Term]) -> None:
    for e in examples:
        if not is_ground(e):
            raise ValueError(f"query example must be ground: {e}")


class QueryEngine:
    """Serve coverage queries against a :class:`TheoryRegistry`.

    One instance may be shared by many server threads: the prepared
    cache is locked (cheaply — expensive dataset builds happen outside
    it, in :func:`~repro.service.jobs.shared_dataset`), and each
    :class:`PreparedTheory` serializes the spans evaluated on its one
    engine, so batches against different theories overlap freely and
    batches against the same theory interleave at span boundaries.
    """

    def __init__(self, registry=None, fault_injector=None):
        self.registry = registry
        self._prepared: "OrderedDict[tuple, PreparedTheory]" = OrderedDict()
        self._lock = threading.Lock()
        #: batches answered from entries no longer cached.
        self._dropped_batches = 0
        self._injector = fault_injector
        #: prepared-cache counters (amortization visibility).
        self.prepared_hits = 0
        self.prepared_misses = 0
        #: batches streamed or cut into several spans, and those of them an
        #: error stopped (a passed deadline, a failed lease, a client gone).
        self.streams_started = 0
        self.streams_cancelled = 0

    # -- preparation -------------------------------------------------------------

    def _resolve(self, name: str, version: Optional[int]) -> int:
        if self.registry is None:
            raise ValueError("QueryEngine has no registry attached")
        return self.registry.resolve_version(name, version)

    def _record_dataset(self, name: str, version: int):
        """Registry record ``name`` v``version`` and its (cached) dataset."""
        record = self.registry.get(name, version)
        prov = record.provenance_dict()
        dataset = prov.get("dataset")
        if dataset is None:
            raise ValueError(
                f"registry record {name} v{version} has no dataset provenance; "
                "pass a KB explicitly via prepare_theory()"
            )
        return record, shared_dataset(
            dataset, int(prov.get("seed", "0")), prov.get("scale", "small")
        )

    def prepare(self, name: str, version: Optional[int] = None) -> PreparedTheory:
        """Prepared entry for a registered theory (build once, reuse)."""
        resolved = self._resolve(name, version)
        key = (name, resolved)
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:
                self._prepared.move_to_end(key)
                self.prepared_hits += 1
                return prepared
        record, ds = self._record_dataset(name, resolved)
        fresh = self.prepare_theory(record.to_theory(), ds.kb, ds.config)
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:  # lost a prepare race: reuse the winner
                self._prepared.move_to_end(key)
                self.prepared_hits += 1
                return prepared
            self.prepared_misses += 1
            self._prepared[key] = fresh
            while len(self._prepared) > PREPARED_CACHE_CAP:
                self._dropped_batches += self._prepared.popitem(last=False)[1].batches
            return fresh

    def forget(self, name: str, versions) -> None:
        """Drop the prepared entries of ``name``'s ``versions`` (removed
        from the registry); their batches stay counted."""
        with self._lock:
            for v in versions:
                entry = self._prepared.pop((name, v), None)
                if entry is not None:
                    self._dropped_batches += entry.batches

    @staticmethod
    def prepare_theory(theory: Theory, kb, config) -> PreparedTheory:
        """Prepared entry for an unregistered theory over an explicit KB."""
        engine = config.make_engine(kb)
        return PreparedTheory(theory=theory, engine=engine)

    # -- querying ----------------------------------------------------------------

    def _span(
        self,
        prepared: PreparedTheory,
        examples: Sequence[Term],
        deadline: Optional[float],
        done: int,
    ) -> tuple[int, int]:
        """Evaluate one span: ``(covered, ops)`` — the per-span checks live here.

        Before the span takes the theory's lock: the request ``deadline``
        (absolute monotonic), so an expired request stops at most one
        span late; then the chaos plan's lease point ("before the n-th
        span is evaluated", counted over every span of every query), so
        a ``fail`` surfaces as a retryable ``unavailable`` error — never
        as a partial result — and a ``slow`` costs tail latency only.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(f"deadline exceeded after {done} span(s) of the query")
        if self._injector is not None:
            fault = self._injector.on_lease()
            if fault is not None:
                if fault.mode == "fail":
                    raise Unavailable("injected engine-lease failure (chaos plan)")
                time.sleep(fault.delay)
        engine = prepared.engine
        with prepared._lock:
            ops0 = engine.total_ops
            covered = theory_covered_bits(engine, tuple(prepared.theory), examples)
            prepared.batches += done == 0
            return covered, engine.total_ops - ops0

    def query(
        self,
        name: str,
        examples: Sequence[Term],
        version: Optional[int] = None,
        shards: Optional[int] = None,
        deadline: Optional[float] = None,
        on_frame: Optional[Callable[[ShardResult], None]] = None,
    ) -> QueryResult:
        """Batched coverage of ``examples`` under a registered theory.

        The batch runs as the ``shards`` spans of ``shard_spans`` (one
        when None), in order on the prepared engine; each span's
        :class:`ShardResult` goes to ``on_frame`` as soon as it is
        evaluated.  An error — a passed ``deadline`` (absolute
        monotonic), an injected lease failure, an ``on_frame`` that
        raises — stops the batch before its next span: never a partial
        result.
        """
        prepared = self.prepare(name, version)
        check_ground(examples)  # up front: a bad example never costs a span
        k = shards or 1
        spans = shard_spans(len(examples), k)
        streamed = on_frame is not None or k > 1
        if streamed:
            with self._lock:
                self.streams_started += 1
        covered = ops = 0
        try:
            for i, (lo, hi) in enumerate(spans):
                bits, used = self._span(prepared, examples[lo:hi], deadline, done=i)
                covered |= bits << lo
                ops += used
                if on_frame is not None:
                    on_frame(ShardResult(shard=i, lo=lo, n=hi - lo, covered=bits, ops=used))
        except BaseException:
            if streamed:
                with self._lock:
                    self.streams_cancelled += 1
            raise
        return QueryResult(covered=covered, n=len(examples), ops=ops, shards=len(spans))

    def dataset_for(self, name: str, version: Optional[int] = None):
        """The (shared) dataset a registered theory was learned on.

        Callers that want to classify a theory's own training examples
        reuse the dataset the prepare step already built instead of
        regenerating it.
        """
        return self._record_dataset(name, self._resolve(name, version))[1]

    def stats(self) -> dict:
        """Prepared-cache and stream counters."""
        with self._lock:
            return {
                "prepared_hits": self.prepared_hits,
                "prepared_misses": self.prepared_misses,
                "prepared_entries": len(self._prepared),
                "batches": self._dropped_batches
                + sum(p.batches for p in self._prepared.values()),
                "streams_started": self.streams_started,
                "streams_cancelled": self.streams_cancelled,
            }
