"""Compact wire codec for the parallel task messages.

The paper's communication accounting (Table 4) charges for every
marshalled byte, and the real backends ship those bytes for real — so the
wire format is a first-class perf surface.  Pickling a task payload spends
most of its bytes on protocol scaffolding: class paths, attribute names,
per-object frames.  This codec replaces it with a purpose-built binary
format:

* **per-message symbol table** — every string (functor, symbol constant,
  variable name) is emitted once and referenced by varint index.  A
  ``PipelineTask`` carrying a 60-literal bottom clause repeats each
  predicate name and variable dozens of times; all repeats collapse to
  one-or-two-byte references.
* **struct-packed scalars** — LEB128 varints for sizes/ids, zigzag varints
  for signed and arbitrary-precision integers, 8-byte IEEE doubles for
  floats, minimal big-endian byte strings for coverage **bitsets**.
* **structural layouts** per message type (one tag byte), with terms,
  clauses and bottom clauses encoded by shape — no per-object headers.
* **rules as positions** — a ``PipelineTask``'s rules are ⊥e's head plus
  increasing subsequences of ⊥e's literals, and the task carries ⊥e, so
  each rule travels as the gaps between its literals' positions in ⊥e.
  The receiver rebuilds it with ``with_extra_literal`` from ⊥e's most
  general rule, so its variant key is built incrementally, as the
  sender's was.  A rule no positions can carry is refused at encode time.

Messages are self-contained (the symbol table travels with the message),
so byte counts are a pure function of the payload — deterministic across
runs, processes and hash seeds (variable *sets* are sorted by name before
encoding for exactly this reason).  Decoding rebuilds terms through the
hash-consing constructors of :mod:`repro.logic.terms`, so the master and
every worker share one intern table per process: a ground term arriving
from the wire is pointer-equal to the local copy, and the engine's
identity fast paths apply to shipped rules immediately.

This is the one message format: every payload is sized and shipped as
the bytes :func:`encode_always` writes, and a payload whose type has no
codec is refused there with a :class:`WireError` naming the type.

Wire layout (version 1)::

    0xC3 | version | type-code | n-syms | sym* | body
    sym   := varint(len) utf8-bytes
    term  := 0x00 sym                 (variable)
           | 0x01 sym                 (symbol constant)
           | 0x02 zigzag              (int constant)
           | 0x03 f64-be              (float constant)
           | 0x04 byte                (bool constant)
           | 0x05 sym varint(n) term* (compound)
    clause  := term varint(n) term*
    rule    := varint(n) varint(gap)*  (⊥e literals skipped before each)
    bitset  := varint(n) big-endian-bytes
    varset  := varint(n) sym*         (sorted by variable name)
    option  := 0x00 | 0x01 value
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.ilp.bottom import BottomClause, BottomLiteral
from repro.ilp.refinement import SearchRule
from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Term, Var
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    Ping,
    PipelineRules,
    PipelineTask,
    Pong,
    RuleStats,
    StartPipeline,
    Stop,
    UpdateRouting,
)

__all__ = ["decode", "encode_always", "register_codec", "WireError"]

_MAGIC = 0xC3
_VERSION = 1

_T_VAR = 0x00
_T_CONST_STR = 0x01
_T_CONST_INT = 0x02
_T_CONST_FLOAT = 0x03
_T_CONST_BOOL = 0x04
_T_STRUCT = 0x05

_pack_f64 = struct.Struct(">d").pack
_unpack_f64 = struct.Struct(">d").unpack_from


class WireError(ValueError):
    """Malformed or unsupported wire data."""


# -- primitive writers ----------------------------------------------------------


class _Encoder:
    __slots__ = ("body", "_syms")

    def __init__(self):
        self.body = bytearray()
        self._syms: dict[str, int] = {}

    def u(self, v: int) -> None:
        """Unsigned LEB128 varint."""
        body = self.body
        while v > 0x7F:
            body.append((v & 0x7F) | 0x80)
            v >>= 7
        body.append(v)

    def z(self, v: int) -> None:
        """Zigzag varint (arbitrary-precision signed)."""
        self.u(v * 2 if v >= 0 else -v * 2 - 1)

    def sym(self, s: str) -> None:
        idx = self._syms.get(s)
        if idx is None:
            idx = self._syms[s] = len(self._syms)
        self.u(idx)

    def flag(self, b: bool) -> None:
        self.body.append(1 if b else 0)

    def bitset(self, bits: int) -> None:
        n = (bits.bit_length() + 7) // 8
        self.u(n)
        self.body += bits.to_bytes(n, "big")

    def f64(self, v: float) -> None:
        """IEEE-754 big-endian double — exact round-trip, 8 bytes."""
        self.body += _pack_f64(v)

    def term(self, t: Term) -> None:
        tt = type(t)
        if tt is Var:
            self.body.append(_T_VAR)
            self.sym(t.name)
        elif tt is Const:
            v = t.value
            tv = type(v)
            if tv is str:
                self.body.append(_T_CONST_STR)
                self.sym(v)
            elif tv is bool:
                self.body.append(_T_CONST_BOOL)
                self.body.append(1 if v else 0)
            elif tv is int:
                self.body.append(_T_CONST_INT)
                self.z(v)
            elif tv is float:
                self.body.append(_T_CONST_FLOAT)
                self.body += _pack_f64(v)
            else:  # pragma: no cover - Const accepts only str/int/float/bool
                raise WireError(f"unencodable constant {v!r}")
        elif tt is Struct:
            self.body.append(_T_STRUCT)
            self.sym(t.functor)
            self.u(len(t.args))
            for a in t.args:
                self.term(a)
        else:  # pragma: no cover - defensive
            raise WireError(f"unencodable term {t!r}")

    def terms(self, seq) -> None:
        self.u(len(seq))
        for t in seq:
            self.term(t)

    def clause(self, c: Clause) -> None:
        self.term(c.head)
        self.terms(c.body)

    def clauses(self, seq) -> None:
        self.u(len(seq))
        for c in seq:
            self.clause(c)

    def varset(self, vs: frozenset) -> None:
        # Sorted by name: frozenset iteration order depends on the process
        # hash seed, and byte counts must not.
        names = sorted(v.name for v in vs)
        self.u(len(names))
        for n in names:
            self.sym(n)

    def rules_in(self, seq, bottom: Optional[BottomClause]) -> None:
        """Search rules as positions in ``bottom`` (module docstring)."""
        self.u(len(seq))
        if seq and bottom is None:
            raise WireError("a pipeline task's rules travel as positions in its bottom clause")
        for sr in seq:
            positions = _positions(sr, bottom)
            self.u(len(positions))
            prev = -1
            for j in positions:
                self.u(j - prev - 1)
                prev = j

    def bottom(self, b: BottomClause) -> None:
        self.term(b.seed)
        self.term(b.head)
        self.u(len(b.literals))
        for bl in b.literals:
            self.term(bl.literal)
            self.varset(bl.input_vars)
            self.varset(bl.output_vars)
        self.varset(b.head_vars)

    def finish(self, code: int) -> bytes:
        out = bytearray((_MAGIC, _VERSION, code))
        w = out.append
        n = len(self._syms)
        v = n
        while v > 0x7F:
            w((v & 0x7F) | 0x80)
            v >>= 7
        w(v)
        for s in self._syms:  # insertion order == index order
            raw = s.encode("utf-8")
            v = len(raw)
            while v > 0x7F:
                w((v & 0x7F) | 0x80)
                v >>= 7
            w(v)
            out += raw
        out += self.body
        return bytes(out)


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
        raise WireError(f"search rule {sr} is no forward match of its bottom clause")
    return out


class _Decoder:
    __slots__ = ("data", "pos", "syms")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u(self) -> int:
        data = self.data
        pos = self.pos
        shift = 0
        out = 0
        while True:
            b = data[pos]
            pos += 1
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        self.pos = pos
        return out

    def z(self) -> int:
        u = self.u()
        return u >> 1 if not u & 1 else -(u >> 1) - 1

    def flag(self) -> bool:
        b = self.data[self.pos]
        self.pos += 1
        return b != 0

    def bitset(self) -> int:
        n = self.u()
        out = int.from_bytes(self.data[self.pos : self.pos + n], "big")
        self.pos += n
        return out

    def f64(self) -> float:
        (v,) = _unpack_f64(self.data, self.pos)
        self.pos += 8
        return v

    def read_syms(self) -> None:
        n = self.u()
        syms = []
        for _ in range(n):
            ln = self.u()
            syms.append(self.data[self.pos : self.pos + ln].decode("utf-8"))
            self.pos += ln
        self.syms = syms

    def sym(self) -> str:
        return self.syms[self.u()]

    def term(self) -> Term:
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _T_VAR:
            return Var(self.sym())
        if tag == _T_CONST_STR:
            return Const(self.sym())
        if tag == _T_CONST_INT:
            return Const(self.z())
        if tag == _T_CONST_FLOAT:
            (v,) = _unpack_f64(self.data, self.pos)
            self.pos += 8
            return Const(v)
        if tag == _T_CONST_BOOL:
            return Const(self.flag())
        if tag == _T_STRUCT:
            functor = self.sym()
            n = self.u()
            return Struct(functor, tuple(self.term() for _ in range(n)))
        raise WireError(f"bad term tag {tag:#x}")

    def terms(self) -> tuple:
        return tuple(self.term() for _ in range(self.u()))

    def clause(self) -> Clause:
        head = self.term()
        return Clause(head, self.terms())

    def clauses(self) -> tuple:
        return tuple(self.clause() for _ in range(self.u()))

    def varset(self) -> frozenset:
        return frozenset(Var(self.sym()) for _ in range(self.u()))

    def rules_in(self, bottom: Optional[BottomClause]) -> tuple:
        rules = []
        for _ in range(self.u()):
            clause = bottom.most_general_rule()
            j = -1
            for _ in range(self.u()):
                j += self.u() + 1
                clause = clause.with_extra_literal(bottom.literals[j].literal)
            rules.append(SearchRule(clause, j))
        return tuple(rules)

    def bottom(self) -> BottomClause:
        seed = self.term()
        head = self.term()
        literals = [
            BottomLiteral(self.term(), self.varset(), self.varset())
            for _ in range(self.u())
        ]
        return BottomClause(seed=seed, head=head, literals=literals, head_vars=self.varset())


# -- per-message layouts ----------------------------------------------------------


def _enc_load_examples(e: _Encoder, m: LoadExamples) -> None:
    e.u(m.partition_id)


def _dec_load_examples(d: _Decoder) -> LoadExamples:
    return LoadExamples(partition_id=d.u())


def _stamp(e: _Encoder, stamp: Optional[int], plain: int, stamped: int) -> int:
    """Write a message's stamp, if any, where its layout puts it; return
    the code it goes under (``plain`` unstamped, ``stamped`` otherwise)."""
    if stamp is None:
        return plain
    e.u(stamp)
    return stamped


def _dec_stamp_first(dec, stamp: str):
    """Decoder of a stamp-first layout: the stamp, then the plain body."""
    return lambda d: dec(d, **{stamp: d.u()})


def _enc_start_pipeline(e: _Encoder, m: StartPipeline) -> int:
    if (m.origin is None) != (m.epoch is None):
        raise WireError(f"origin and epoch travel together: {m!r}")
    if m.epoch is not None:
        e.u(m.origin)
    e.flag(m.width is not None)
    if m.width is not None:
        e.u(m.width)
    return _stamp(e, m.epoch, 2, 15)


def _dec_start_pipeline(d: _Decoder) -> StartPipeline:
    return StartPipeline(width=d.u() if d.flag() else None)


def _dec_stamped_start(d: _Decoder) -> StartPipeline:
    return StartPipeline(origin=d.u(), width=d.u() if d.flag() else None, epoch=d.u())


def _enc_pipeline_task(e: _Encoder, m: PipelineTask) -> int:
    code = _stamp(e, m.epoch, 35, 37)
    e.flag(m.bottom is not None)
    if m.bottom is not None:
        e.bottom(m.bottom)
    e.u(m.step)
    e.flag(m.width is not None)
    if m.width is not None:
        e.u(m.width)
    e.rules_in(m.rules, m.bottom)
    e.u(m.origin)
    return code


def _dec_pipeline_task(d: _Decoder, epoch: Optional[int] = None) -> PipelineTask:
    bottom = d.bottom() if d.flag() else None
    step = d.u()
    width = d.u() if d.flag() else None
    rules = d.rules_in(bottom)
    return PipelineTask(
        bottom=bottom, step=step, width=width, rules=rules, origin=d.u(), epoch=epoch
    )


def _enc_pipeline_result(e: _Encoder, m: PipelineRules) -> int:
    code = _stamp(e, m.epoch, 36, 38)
    e.u(m.origin)
    e.clauses(m.rules)
    return code


def _dec_pipeline_result(d: _Decoder, epoch: Optional[int] = None) -> PipelineRules:
    return PipelineRules(origin=d.u(), rules=d.clauses(), epoch=epoch)


def _enc_evaluate_request(e: _Encoder, m: EvaluateRequest) -> int:
    code = _stamp(e, m.round, 32, 17)
    e.clauses(m.rules)
    return code


def _dec_evaluate_request(d: _Decoder, round: Optional[int] = None) -> EvaluateRequest:
    return EvaluateRequest(rules=d.clauses(), round=round)


def _enc_evaluate_result(e: _Encoder, m: EvaluateResult) -> int:
    code = _stamp(e, m.round, 33, 34)
    e.u(m.rank)
    e.u(len(m.stats))
    for rs in m.stats:
        e.u(rs.pos)
        e.u(rs.neg)
    return code


def _dec_evaluate_result(d: _Decoder, round: Optional[int] = None) -> EvaluateResult:
    rank = d.u()
    stats = tuple(RuleStats(pos=d.u(), neg=d.u()) for _ in range(d.u()))
    return EvaluateResult(rank=rank, stats=stats, round=round)


def _enc_mark_covered(e: _Encoder, m: MarkCovered) -> None:
    e.clause(m.rule)


def _dec_mark_covered(d: _Decoder) -> MarkCovered:
    return MarkCovered(rule=d.clause())


def _enc_stop(e: _Encoder, m: Stop) -> None:
    pass


def _dec_stop(d: _Decoder) -> Stop:
    return Stop()


# -- fault-tolerance protocol layouts ---------------------------------------------


def _enc_ping(e: _Encoder, m: Ping) -> None:
    e.u(m.token)


def _dec_ping(d: _Decoder) -> Ping:
    return Ping(token=d.u())


def _enc_pong(e: _Encoder, m: Pong) -> None:
    e.u(m.rank)
    e.u(m.token)
    e.u(m.cache_hits)
    e.u(m.cache_misses)


def _dec_pong(d: _Decoder) -> Pong:
    return Pong(rank=d.u(), token=d.u(), cache_hits=d.u(), cache_misses=d.u())


def _enc_adopt_worker(e: _Encoder, m: AdoptWorker) -> None:
    e.u(m.virtual_rank)
    e.u(m.partition_id)
    e.u(m.epoch)
    e.u(len(m.completed))
    for epoch_rules in m.completed:
        e.clauses(epoch_rules)
    e.clauses(m.current)
    e.flag(m.draw_seeds)
    e.flag(m.draw_current)


def _dec_adopt_worker(d: _Decoder) -> AdoptWorker:
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


def _enc_update_routing(e: _Encoder, m: UpdateRouting) -> None:
    e.u(len(m.routing))
    for virtual, host in m.routing:
        e.u(virtual)
        e.u(host)


def _dec_update_routing(d: _Decoder) -> UpdateRouting:
    return UpdateRouting(routing=tuple((d.u(), d.u()) for _ in range(d.u())))


#: type -> (code, encoder); code -> decoder.  Codes are part of the wire
#: format — append only, never renumber.  A task message has two layouts,
#: plain and stamped: its code here is None and its encoder returns the
#: code it wrote.
_ENCODERS: dict = {
    LoadExamples: (0, _enc_load_examples),
    StartPipeline: (None, _enc_start_pipeline),  # 2 | 15
    PipelineTask: (None, _enc_pipeline_task),  # 35 | 37
    PipelineRules: (None, _enc_pipeline_result),  # 36 | 38
    EvaluateRequest: (None, _enc_evaluate_request),  # 32 | 17
    EvaluateResult: (None, _enc_evaluate_result),  # 33 | 34
    MarkCovered: (7, _enc_mark_covered),
    Stop: (11, _enc_stop),
    Ping: (12, _enc_ping),
    Pong: (13, _enc_pong),
    AdoptWorker: (14, _enc_adopt_worker),
    UpdateRouting: (16, _enc_update_routing),
    # 1, 3-6, 8-10, 18-20 and 29-31 retired; 21-28 reserved (out-of-package; see register_codec).
}
_DECODERS: dict = {
    0: _dec_load_examples,
    2: _dec_start_pipeline,
    7: _dec_mark_covered,
    11: _dec_stop,
    12: _dec_ping,
    13: _dec_pong,
    14: _dec_adopt_worker,
    15: _dec_stamped_start,
    16: _dec_update_routing,
    17: _dec_stamp_first(_dec_evaluate_request, "round"),
    32: _dec_evaluate_request,
    33: _dec_evaluate_result,
    34: _dec_stamp_first(_dec_evaluate_result, "round"),
    35: _dec_pipeline_task,
    36: _dec_pipeline_result,
    37: _dec_stamp_first(_dec_pipeline_task, "epoch"),
    38: _dec_stamp_first(_dec_pipeline_result, "epoch"),
}

#: Codes whose format is gone, with what they carried.  Reserved for good:
#: :func:`register_codec` refuses them and :func:`decode` names the
#: retired format instead of calling the code unknown.
_RETIRED_CODES: dict = {
    1: "LoadData, training data shipped to a worker without a shared filesystem",
    3: "PipelineTask, a pipeline task shipping each rule as a clause with its parent",
    4: "PipelineRules, a pipeline's rules as search rules with their parents",
    5: "EvaluateRequest, an evaluation request echoing per-rule candidate masks",
    6: "EvaluateResult, an evaluation reply carrying per-rule candidate masks",
    8: "GatherExamples, a per-epoch repartitioning request",
    9: "ExamplesReport, a worker's examples for per-epoch repartitioning",
    10: "Repartition, a worker's new examples from per-epoch repartitioning",
    18: "FTEvaluateResult, a round-stamped evaluation reply carrying per-rule candidate masks",
    19: "FTPipelineTask, an epoch-stamped pipeline task shipping each rule as a clause with its parent",
    20: "FTPipelineRules, an epoch-stamped pipeline's rules as search rules with their parents",
    24: "WireJson, a service request or response on the wire client transport",
    25: "WireQuery, a service query of parsed terms on the wire client transport",
    26: "WireShard, one streamed span's answer on the wire client transport",
    27: "WireQueryEnd, a query's merged answer on the wire client transport",
    29: "CoverageCertificate, a sampled-coverage .cert file",
    30: "SampledEvaluateRequest, a sampled-coverage screening request",
    31: "SampledEvaluateResult, a sampled-coverage screening reply",
}


def register_codec(payload_type: type, code: int, enc, dec) -> None:
    """Register an out-of-package payload codec (append-only codes).

    Higher layers register their payload types here, without an import
    cycle back into this module's registry; a type nobody registers
    cannot be sent or written (:func:`encode_always` refuses it).  Codes
    0, 2, 7, 11-17 and 32-38 are the in-package messages above (15, 17,
    34, 37 and 38 decode to stamped task messages: see
    :mod:`repro.parallel.messages`); 1, 3-6, 8-10, 18-20, 24-27 and 29-31
    are retired (:data:`_RETIRED_CODES`);
    currently reserved by out-of-package formats (never reuse or renumber):

    * 21 — :class:`repro.fault.checkpoint.CheckpointState` (``.ckpt`` files)
    * 22 — :class:`repro.service.registry.RegistryRecord` (``.theory`` files)
    * 23 — :class:`repro.service.jobs.JobRecord` (scheduler ``job.rec`` files)
    * 28 — :class:`repro.obs.span.SpanBatch` (per-rank telemetry spans)
    """
    if code in _RETIRED_CODES:
        raise ValueError(f"wire code {code} is retired ({_RETIRED_CODES[code]})")
    if code in _DECODERS or payload_type in _ENCODERS:
        prev = _ENCODERS.get(payload_type)
        if prev is not None and prev[0] == code:
            return  # idempotent re-registration
        raise ValueError(f"wire code {code} / type {payload_type.__name__} already taken")
    _ENCODERS[payload_type] = (code, enc)
    _DECODERS[code] = dec


def encode_always(payload: object) -> bytes:
    """Encode a registered payload.

    Messages, checkpoints, registry records and job records all go
    through here; a payload whose type has no codec raises
    :class:`WireError` naming the type.
    """
    entry = _ENCODERS.get(type(payload))
    if entry is None:
        cls = type(payload)
        raise WireError(
            f"no wire codec for payload type {cls.__module__}.{cls.__qualname__}"
        )
    code, enc = entry
    e = _Encoder()
    wrote = enc(e, payload)
    return e.finish(wrote if code is None else code)


def decode(data: bytes) -> object:
    """Decode wire bytes back into the original payload object."""
    if len(data) < 3 or data[0] != _MAGIC:
        raise WireError("not a wire-codec message")
    if data[1] != _VERSION:
        raise WireError(f"unsupported wire version {data[1]}")
    dec = _DECODERS.get(data[2])
    if dec is None:
        if data[2] in _RETIRED_CODES:
            raise WireError(
                f"retired message type code {data[2]} ({_RETIRED_CODES[data[2]]}): "
                "this version no longer reads that format"
            )
        raise WireError(f"unknown message type code {data[2]}")
    d = _Decoder(data)
    d.pos = 3
    try:
        d.read_syms()
        out = dec(d)
    except WireError:
        raise
    except Exception as exc:
        # A truncated or bit-flipped body crashes the primitive readers
        # (IndexError past the buffer, struct.error on a short f64,
        # UnicodeDecodeError in a symbol...).  Receivers are promised a
        # WireError for any malformed payload — fold them all into it.
        raise WireError(f"truncated or corrupt message body: {exc!r}") from exc
    if d.pos != len(data):
        raise WireError(f"trailing bytes after message ({len(data) - d.pos})")
    return out
