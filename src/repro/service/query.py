"""Batched and streaming coverage queries against registered theories.

Theory *application* is orders of magnitude cheaper than theory
*learning*, but the naive per-example path (``predicts``: rename every
clause, unify, prove — per example) still re-pays two setup costs on
every call: rebuilding the dataset's knowledge base/engine, and renaming
each clause apart.  The query engine amortizes both:

* a **prepared-theory cache**: the first query against ``(name,
  version)`` builds the dataset KB (from the record's provenance), an
  :class:`~repro.logic.engine.Engine` and the clause list once; every
  later batch reuses them (KB indexes and the engine's ground-goal memo
  stay warm across batches);
* **micro-batching**: a batch is evaluated clause-by-clause via
  :func:`repro.ilp.coverage.theory_covered_bits` — one coverage plan (or
  one ``rename_apart``) per clause per batch instead of per example, and
  each clause only tests the examples no earlier clause covered;
* **spans**: a batch may be cut into contiguous spans by
  :func:`repro.parallel.partition.shard_spans`.  The spans run *one
  after another* on the prepared theory's one engine — ``shards=k`` is
  evaluation granularity, not parallelism (worker threads over a
  pure-Python engine never scaled under the GIL; the last measurements
  are in ``docs/performance.md``).  Between two spans the theory's lock
  is free, the request deadline is checked and a cancel is honoured;
* **streaming**: :meth:`QueryEngine.query_stream` hands each span's
  result out as soon as it is evaluated, so a consumer sees first
  results after ~1/k of the batch work instead of all of it.

**Determinism invariant**: the covered bitset a batch returns is a pure
per-example function of (clause list, KB, engine budget) — independent
of micro-batch size, span count and transport — so spanned and streamed
answers are bit-identical to the one-span path (pinned by
``tests/service/test_query.py`` and ``tests/service/test_streaming.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.datasets import make_dataset
from repro.ilp.coverage import popcount, theory_covered_bits
from repro.logic.clause import Theory
from repro.logic.engine import Engine
from repro.logic.terms import Term, is_ground
from repro.parallel.partition import shard_spans
from repro.service.errors import DeadlineExceeded, Unavailable

__all__ = [
    "QueryEngine",
    "QueryResult",
    "PreparedTheory",
    "ShardResult",
    "QueryStream",
]


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
    """One span's slice of a streamed query batch.

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
    interleave across threads — so every *span* evaluated here holds the
    entry's lock.  A plain query is one span; a spanned or streamed
    batch takes and releases the lock once per span, which is where
    concurrent requests against the *same* theory get their turn.
    Different theories (and learning jobs) still overlap freely.
    """

    theory: Theory
    engine: Engine
    #: batches answered from this entry (cache effectiveness counter).
    batches: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def query(
        self, examples: Sequence[Term], micro_batch: int = 1024, new_batch: bool = True
    ) -> QueryResult:
        """Coverage of one span of ``examples``; every one must be ground.

        ``micro_batch`` bounds the slice evaluated per clause pass (it
        caps transient bitset width on very large batches; results are
        independent of its value).  A stream passes ``new_batch`` on its
        first span only, so ``batches`` counts requests, not spans.
        """
        check_ground(examples)
        with self._lock:
            ops0 = self.engine.total_ops
            covered = theory_covered_bits(
                self.engine, tuple(self.theory), examples, micro_batch=micro_batch
            )
            self.batches += new_batch
            return QueryResult(
                covered=covered, n=len(examples), ops=self.engine.total_ops - ops0
            )


def check_ground(examples: Sequence[Term]) -> None:
    for e in examples:
        if not is_ground(e):
            raise ValueError(f"query example must be ground: {e}")


class QueryStream:
    """One query batch, evaluated span by span as its frames are pulled.

    Nothing runs until :meth:`next_frame` is called: each call evaluates
    the next span of ``shard_spans(n, k)`` on the prepared theory's
    engine (through :meth:`QueryEngine._span`, where the deadline and
    the chaos plan's lease faults are checked) and returns it, so frames
    arrive in **ascending span order** and a consumer that applies them
    as they come sees a strictly growing prefix of the batch.  The final
    frame is followed by ``None``; :meth:`result` then has the merged
    batch answer, bit-identical to the one-span path.

    :meth:`cancel` is thread-safe and is how the serving layer stops
    paying for a client that disconnected mid-stream: the span being
    evaluated runs to completion (Python threads cannot be interrupted
    mid-evaluation), no later span is started, and frames stop.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        prepared: PreparedTheory,
        examples: Sequence[Term],
        spans: list[tuple[int, int]],
        micro_batch: int = 1024,
        deadline: Optional[float] = None,
    ):
        self.prepared = prepared
        self.n = len(examples)
        self.spans = spans
        self._engine = engine
        self._examples = examples
        self._micro_batch = micro_batch
        self._deadline = deadline
        self._cancelled = threading.Event()
        self._next = 0
        self._merged = 0
        self._ops = 0

    def next_frame(self) -> Optional[ShardResult]:
        """Evaluate and return the next span; None when done/cancelled."""
        k = self._next
        if self._cancelled.is_set() or k >= len(self.spans):
            return None
        lo, hi = self.spans[k]
        part = self._engine._span(
            self.prepared, self._examples[lo:hi], self._micro_batch, self._deadline, done=k
        )
        self._next = k + 1
        self._merged |= part.covered << lo
        self._ops += part.ops
        return ShardResult(shard=k, lo=lo, n=hi - lo, covered=part.covered, ops=part.ops)

    def frames(self) -> Iterator[ShardResult]:
        """Iterate the remaining frames in span order."""
        return iter(self.next_frame, None)

    @property
    def done(self) -> bool:
        return self._next >= len(self.spans) and not self._cancelled.is_set()

    def result(self) -> QueryResult:
        """The merged batch answer (every frame must have been consumed)."""
        if not self.done:
            raise RuntimeError("stream not fully consumed (or cancelled)")
        return QueryResult(
            covered=self._merged, n=self.n, ops=self._ops, shards=len(self.spans)
        )

    def cancel(self) -> None:
        """Stop streaming: no span after the current one is evaluated."""
        with self._engine._lock:
            if self._cancelled.is_set():
                return
            self._cancelled.set()
            self._engine.streams_cancelled += 1


class QueryEngine:
    """Serve coverage queries against a :class:`TheoryRegistry`.

    One instance may be shared by many server threads: the prepared
    cache is locked (cheaply — expensive dataset builds happen outside
    the lock), and each :class:`PreparedTheory` serializes the spans
    evaluated on its one engine, so batches against different theories
    overlap freely and batches against the same theory interleave at
    span boundaries.
    """

    def __init__(self, registry=None, fault_injector=None):
        self.registry = registry
        self._prepared: dict[tuple, PreparedTheory] = {}
        self._datasets: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._injector = fault_injector
        #: prepared-cache counters (amortization visibility).
        self.prepared_hits = 0
        self.prepared_misses = 0
        #: streams opened / cut short by :meth:`QueryStream.cancel`.
        self.streams_started = 0
        self.streams_cancelled = 0

    # -- preparation -------------------------------------------------------------

    def _dataset(self, name: str, seed: int, scale: str):
        key = (name, seed, scale)
        with self._lock:
            ds = self._datasets.get(key)
        if ds is None:
            # Built outside the lock: dataset generation can take seconds
            # and must not stall cache hits for other theories.  A racing
            # duplicate build is harmless (last writer wins; both are
            # equal by construction).
            ds = make_dataset(name, seed=seed, scale=scale)
            with self._lock:
                ds = self._datasets.setdefault(key, ds)
        return ds

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
        return record, self._dataset(
            dataset, int(prov.get("seed", "0")), prov.get("scale", "small")
        )

    def prepare(self, name: str, version: Optional[int] = None) -> PreparedTheory:
        """Prepared entry for a registered theory (build once, reuse)."""
        resolved = self._resolve(name, version)
        key = (name, resolved)
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:
                self.prepared_hits += 1
                return prepared
        record, ds = self._record_dataset(name, resolved)
        fresh = self.prepare_theory(record.to_theory(), ds.kb, ds.config)
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:  # lost a prepare race: reuse the winner
                self.prepared_hits += 1
                return prepared
            self.prepared_misses += 1
            self._prepared[key] = fresh
            return fresh

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
        micro_batch: int,
        deadline: Optional[float] = None,
        done: int = 0,
    ) -> QueryResult:
        """Evaluate one span — the one place the per-span checks live.

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
        return prepared.query(examples, micro_batch=micro_batch, new_batch=done == 0)

    def query(
        self,
        name: str,
        examples: Sequence[Term],
        version: Optional[int] = None,
        micro_batch: int = 1024,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Batched coverage of ``examples`` under a registered theory.

        The whole batch is one span on the prepared engine; use
        :meth:`query_stream` to cut it into several.
        """
        return self._span(self.prepare(name, version), examples, micro_batch, deadline)

    def query_stream(
        self,
        name: str,
        examples: Sequence[Term],
        version: Optional[int] = None,
        micro_batch: int = 1024,
        shards: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> QueryStream:
        """Open a query evaluated in ``shards`` spans, one frame per span.

        Nothing is evaluated until the consumer pulls frames
        (:meth:`QueryStream.frames`); a consumer that stops early should
        :meth:`QueryStream.cancel` so the stream shows up as cut short —
        the serving layer does on client disconnect.
        """
        prepared = self.prepare(name, version)
        check_ground(examples)  # up front: a bad example never costs a frame
        spans = shard_spans(len(examples), shards or 1)
        with self._lock:
            self.streams_started += 1
        return QueryStream(self, prepared, examples, spans, micro_batch, deadline)

    def dataset_for(self, name: str, version: Optional[int] = None):
        """The (cached) dataset a registered theory was learned on.

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
                "batches": sum(p.batches for p in self._prepared.values()),
                "streams_started": self.streams_started,
                "streams_cancelled": self.streams_cancelled,
            }
