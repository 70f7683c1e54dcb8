"""Service-protocol messages in the compact wire encoding (codes 24-27).

The service's default transport is JSON-lines — debuggable with ``nc``
and fine for control traffic — but query payloads are dominated by two
things JSON represents badly: example term lists (rendered as strings,
re-parsed server-side) and covered bitsets (hex strings).  The
:mod:`repro.parallel.wire` codec already carries both natively between
cluster nodes, so the server offers it as a **negotiated alternative
client transport**: a client asks for ``"transport": "wire"`` in its
JSON hello, and on acknowledgement the connection switches from
newline-delimited JSON to length-prefixed wire frames (4-byte big-endian
length, then one wire message).  Servers that predate the hello op
reject it, so clients fall back to JSON-lines automatically.

Four message types cover the protocol:

* :class:`WireJson` — any control request/response, as a JSON envelope.
  Keeps dispatch uniform: ops other than ``query`` gain nothing from a
  binary layout, so they ride unchanged inside one wire symbol.
* :class:`WireQuery` — a coverage query: terms travel as tagged wire
  terms with a per-message symbol table, not strings.
* :class:`WireShard` — one streamed shard frame (span-local bitset).
* :class:`WireQueryEnd` — end-of-batch summary with the merged bitset.

Codes are registered append-only via :func:`repro.parallel.wire.register_codec`
(24-27; see that docstring's reservation list).

The transport is a codec and nothing more: both ends speak request and
response *dicts*, and the four functions of the last section map them
onto these messages — :func:`message_for` / :func:`request_of` for a
request, :func:`message_of` / :func:`response_of` for a response.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

from repro.logic import parse_term
from repro.logic.terms import Term
from repro.parallel import wire
from repro.service.errors import BadRequest, FrameTooLarge

__all__ = [
    "WireJson",
    "WireQuery",
    "WireShard",
    "WireQueryEnd",
    "message_for",
    "request_of",
    "message_of",
    "response_of",
    "pack_frame",
    "TRANSPORTS",
    "FRAME_HEADER",
    "MAX_FRAME",
    "read_frame_from",
    "write_frame_to",
]

#: transports a server can negotiate in the hello op.
TRANSPORTS = ("json", "wire")

#: struct format of the frame length prefix (4-byte big-endian).
FRAME_HEADER = struct.Struct(">I")

#: refuse frames above this size (64 MiB) — a desynchronized or hostile
#: peer must not make the server allocate arbitrary buffers.
MAX_FRAME = 64 * 1024 * 1024


@dataclass(frozen=True)
class WireJson:
    """A JSON-lines request/response carried verbatim over wire framing."""

    payload: dict


@dataclass(frozen=True)
class WireQuery:
    """A ``query`` request with examples as native wire terms."""

    name: str
    examples: tuple[Term, ...]
    version: Optional[int] = None
    micro_batch: int = 1024
    shards: int = 0  # spans to evaluate the batch in (0 = one)
    stream: bool = False


@dataclass(frozen=True)
class WireShard:
    """One streamed shard result (bit i of ``covered`` = example lo+i)."""

    shard: int
    lo: int
    n: int
    covered: int
    ops: int


@dataclass(frozen=True)
class WireQueryEnd:
    """End-of-batch summary; ``covered`` is the merged batch bitset."""

    covered: int
    n: int
    ops: int
    shards: int


# -- codecs (append-only codes 24-27) ---------------------------------------------


def _enc_json(e, m: WireJson) -> None:
    e.sym(json.dumps(m.payload, sort_keys=True, separators=(",", ":")))


def _dec_json(d) -> WireJson:
    return WireJson(payload=json.loads(d.sym()))


def _enc_query(e, m: WireQuery) -> None:
    e.sym(m.name)
    e.flag(m.version is not None)
    if m.version is not None:
        e.u(m.version)
    e.u(m.micro_batch)
    e.u(m.shards)
    e.flag(m.stream)
    e.terms(m.examples)


def _dec_query(d) -> WireQuery:
    name = d.sym()
    version = d.u() if d.flag() else None
    micro_batch = d.u()
    shards = d.u()
    stream = d.flag()
    return WireQuery(
        name=name,
        examples=d.terms(),
        version=version,
        micro_batch=micro_batch,
        shards=shards,
        stream=stream,
    )


def _enc_shard(e, m: WireShard) -> None:
    e.u(m.shard)
    e.u(m.lo)
    e.u(m.n)
    e.u(m.ops)
    e.bitset(m.covered)


def _dec_shard(d) -> WireShard:
    shard, lo, n, ops = d.u(), d.u(), d.u(), d.u()
    return WireShard(shard=shard, lo=lo, n=n, covered=d.bitset(), ops=ops)


def _enc_query_end(e, m: WireQueryEnd) -> None:
    e.u(m.n)
    e.u(m.ops)
    e.u(m.shards)
    e.bitset(m.covered)


def _dec_query_end(d) -> WireQueryEnd:
    n, ops, shards = d.u(), d.u(), d.u()
    return WireQueryEnd(covered=d.bitset(), n=n, ops=ops, shards=shards)


wire.register_codec(WireJson, 24, _enc_json, _dec_json)
wire.register_codec(WireQuery, 25, _enc_query, _dec_query)
wire.register_codec(WireShard, 26, _enc_shard, _dec_shard)
wire.register_codec(WireQueryEnd, 27, _enc_query_end, _dec_query_end)


# -- framing ----------------------------------------------------------------------


def pack_frame(message: object) -> bytes:
    """Length-prefixed wire frame for one protocol message.

    Refuses to build frames over :data:`MAX_FRAME` with a structured
    :class:`~repro.service.errors.FrameTooLarge` — the sender learns
    immediately instead of shipping 64 MiB only to be rejected.
    """
    data = wire.encode_always(message)
    if data is None:
        raise wire.WireError(f"no wire codec for {type(message).__name__}")
    if len(data) > MAX_FRAME:
        raise FrameTooLarge(
            f"outbound wire frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME}-byte cap; split the batch"
        )
    return FRAME_HEADER.pack(len(data)) + data


def write_frame_to(fobj, message: object) -> int:
    """Write one frame to a binary file object; returns bytes written."""
    frame = pack_frame(message)
    fobj.write(frame)
    fobj.flush()
    return len(frame)


def read_frame_from(fobj) -> tuple[Optional[object], int]:
    """(message, bytes read) from a binary file object; (None, n) on EOF.

    The one frame reader of server and client.  An oversized frame's
    body is read away before :class:`FrameTooLarge` is raised, so the
    next call starts at the next frame.
    """
    header = fobj.read(FRAME_HEADER.size)
    if len(header) < FRAME_HEADER.size:
        return None, len(header)
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        left = length
        while left and (chunk := fobj.read(min(left, 65536))):
            left -= len(chunk)
        raise FrameTooLarge(
            f"incoming wire frame of {length} bytes exceeds the "
            f"{MAX_FRAME}-byte cap"
        )
    data = fobj.read(length)
    if len(data) < length:
        return None, FRAME_HEADER.size + len(data)
    return wire.decode(data), FRAME_HEADER.size + length


# -- the codec: request and response dicts <-> messages ---------------------------

#: the request keys :class:`WireQuery` has a field for; a query carrying
#: anything else (a deadline, a caller's request id) rides the envelope.
_NATIVE_QUERY_KEYS = frozenset(
    ("op", "theory", "examples", "version", "micro_batch", "shards", "stream")
)


def message_for(request: dict) -> object:
    """The message a client sends for ``request``.

    A query goes native — examples as terms — whenever that loses
    nothing; every other request is a JSON envelope.
    """
    if request.get("op") == "query" and _NATIVE_QUERY_KEYS.issuperset(request):
        return WireQuery(
            name=request["theory"],
            examples=tuple(parse_term(s) for s in request["examples"]),
            version=request.get("version"),
            micro_batch=request.get("micro_batch") or 1024,
            shards=request.get("shards") or 0,
            stream=bool(request.get("stream")),
        )
    return WireJson(request)


def request_of(message: object) -> object:
    """The request a client's message carries.

    A native query becomes the ordinary ``query`` request, its examples
    already parsed; the server answers terms with packed bitsets.
    """
    if isinstance(message, WireJson):
        return message.payload
    if isinstance(message, WireQuery):
        return {
            "op": "query",
            "theory": message.name,
            "examples": message.examples,
            "version": message.version,
            "micro_batch": message.micro_batch,
            "shards": message.shards,
            "stream": message.stream,
        }
    raise BadRequest(f"unexpected {type(message).__name__}")


def message_of(response: dict) -> object:
    """The message a server sends for ``response``: a query answer whose
    ``covered`` is a packed bitset leaves as the shard or end frame it
    is, anything else as a JSON envelope."""
    covered = response.get("covered")
    if not isinstance(covered, int):
        return WireJson(response)
    if response.get("frame") == "shard":
        return WireShard(
            shard=response["shard"], lo=response["lo"], n=response["n"],
            covered=covered, ops=response["ops"],
        )
    return WireQueryEnd(
        covered=covered, n=response["n"], ops=response["ops"],
        shards=response["shards"],
    )


def response_of(message: object) -> dict:
    """The response a server's message carries, in the JSON-lines shape."""
    if isinstance(message, WireJson):
        return message.payload
    if not isinstance(message, (WireShard, WireQueryEnd)):
        raise ConnectionError(f"unexpected wire message {type(message).__name__}")
    out = {
        "ok": True,
        "n": message.n,
        "ops": message.ops,
        "covered": [bool((message.covered >> i) & 1) for i in range(message.n)],
    }
    if isinstance(message, WireShard):
        out.update(frame="shard", shard=message.shard, lo=message.lo)
    else:
        out.update(
            frame="end", n_covered=message.covered.bit_count(), shards=message.shards
        )
    return out
