"""Compact wire codec: the one binary format of messages and records.

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
* **structural layouts** per payload type (one type-code byte), with
  terms and clauses encoded by shape — no per-object headers.

This module is the codec core: the primitives, terms and clauses, the
registry and :func:`encode_always` / :func:`decode`.  Each layout lives
beside its payload class and registers through :func:`register_codec`
when that module is imported: the P²-MDIE messages, with the bottom
clause and rule-position layouts only they use, in
:mod:`repro.parallel.messages`; the checkpoint, registry, job and span
records in their own modules.  So a process that reads theory records
loads no learner, and :func:`decode` of a code met before its module was
imported imports that module first.

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
    bitset  := varint(n) big-endian-bytes
    varset  := varint(n) sym*         (sorted by variable name)
    option  := 0x00 | 0x01 value
"""

from __future__ import annotations

import importlib
import struct

from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Term, Var

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


# -- the registry -----------------------------------------------------------------

#: type -> (code, encoder); code -> decoder.  Filled by
#: :func:`register_codec` as each payload's module is imported.
_ENCODERS: dict = {}
_DECODERS: dict = {}

#: code -> the module that registers it (see :func:`register_codec`).
#: :func:`decode` imports a code's module the first time it meets the
#: code unregistered, so any wire bytes decode with this module alone.
_HOMES: dict = {
    **dict.fromkeys((0, 2, 7, *range(11, 18), *range(32, 39)), "repro.parallel.messages"),
    21: "repro.fault.checkpoint",
    22: "repro.service.registry",
    23: "repro.service.jobs",
    28: "repro.obs.span",
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
    """Register the codec of a payload type under wire ``code``.

    Each payload's module registers its own layouts when it is imported;
    a type nobody registers cannot be sent or written
    (:func:`encode_always` refuses it).  ``enc(e, payload)`` writes the
    body and returns None, or the code it wrote when the type has two
    layouts; the second layout's code registers decode-only
    (``enc=None``).  Codes are part of the wire format: append only,
    never reuse or renumber.  Who registers each code (:data:`_HOMES`):

    * 0, 2, 7, 11-17 and 32-38 — :mod:`repro.parallel.messages`, the
      P²-MDIE messages; a task message is written plain (2, 35, 36, 32,
      33) or stamped (15, 37, 38, 17, 34, decode-only)
    * 21 — :class:`repro.fault.checkpoint.CheckpointState` (``.ckpt`` files)
    * 22 — :class:`repro.service.registry.RegistryRecord` (``.theory`` files)
    * 23 — :class:`repro.service.jobs.JobRecord` (scheduler ``job.rec`` files)
    * 28 — :class:`repro.obs.span.SpanBatch` (per-rank telemetry spans)

    1, 3-6, 8-10, 18-20, 24-27 and 29-31 are retired
    (:data:`_RETIRED_CODES`) and refused here.  Registering the same
    codec twice is a no-op; any other reuse of a code or type is a
    ``ValueError``.
    """
    if code in _RETIRED_CODES:
        raise ValueError(f"wire code {code} is retired ({_RETIRED_CODES[code]})")
    taken = _DECODERS.get(code, dec) is not dec
    if enc is not None:
        taken = taken or _ENCODERS.get(payload_type, (code, enc)) != (code, enc)
    if taken:
        raise ValueError(f"wire code {code} / type {payload_type.__name__} already taken")
    if enc is not None:
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
    return e.finish(code if wrote is None else wrote)


def _home_decoder(code: int):
    """The decoder of a code met before its module was imported."""
    if code in _RETIRED_CODES:
        raise WireError(
            f"retired message type code {code} ({_RETIRED_CODES[code]}): "
            "this version no longer reads that format"
        )
    home = _HOMES.get(code)
    if home is None:
        raise WireError(f"unknown message type code {code}")
    importlib.import_module(home)
    return _DECODERS[code]


def decode(data: bytes) -> object:
    """Decode wire bytes back into the original payload object."""
    if len(data) < 3 or data[0] != _MAGIC:
        raise WireError("not a wire-codec message")
    if data[1] != _VERSION:
        raise WireError(f"unsupported wire version {data[1]}")
    dec = _DECODERS.get(data[2]) or _home_decoder(data[2])
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
