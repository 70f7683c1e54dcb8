"""Messages exchanged between simulated cluster nodes.

A payload is one of the message types registered with the compact wire
codec (:mod:`repro.parallel.wire`): every task message and the
fault-tolerance protocol's pings, pongs and routing updates.  Its wire
bytes are its *marshalled size* — what the network model charges for and
what :class:`CommStats`, the Table 4 communication-volume accounting,
sums on every substrate — and the bytes the real backends ship.  A
payload of any other type is refused at send with a
:class:`~repro.parallel.wire.WireError` naming its type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Message", "CommStats", "payload_nbytes", "marshal_payload", "unmarshal_payload", "Tag"]


class Tag:
    """Well-known message tags (the paper's task names, §4.1/Fig. 6)."""

    LOAD_EXAMPLES = "load_examples"
    START_PIPELINE = "start_pipeline"
    LEARN_RULE = "learn_rule'"
    RULES = "rules"
    EVALUATE = "evaluate"
    RESULT = "result"
    MARK_COVERED = "mark_covered"
    STOP = "stop"
    # fault-tolerance protocol (repro.fault); only used when a FaultPlan
    # activates it, so fault-free tag statistics are unchanged.
    PING = "ping"
    PONG = "pong"
    ROUTING = "routing"


def marshal_payload(payload: object) -> bytes:
    """The payload's wire bytes: what is sized, accounted and shipped.

    Raises :class:`~repro.parallel.wire.WireError` naming the payload's
    type when the type has no wire codec.
    """
    # Imported here: the cluster layer must stay importable without the
    # parallel package, and the codec module itself imports message types.
    from repro.parallel import wire

    return wire.encode_always(payload)


def unmarshal_payload(data: bytes) -> object:
    """Inverse of :func:`marshal_payload`."""
    from repro.parallel import wire

    return wire.decode(data)


def payload_nbytes(payload: object) -> int:
    """Marshalled size of a payload, in bytes."""
    return len(marshal_payload(payload))


@dataclass(frozen=True)
class Message:
    """One point-to-point message in the simulated cluster."""

    src: int
    dst: int
    tag: str
    payload: object
    nbytes: int
    send_time: float
    arrival_time: float
    seq: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.src}->{self.dst} tag={self.tag} {self.nbytes}B "
            f"t={self.send_time:.6f}->{self.arrival_time:.6f})"
        )


@dataclass
class CommStats:
    """Aggregate communication accounting for one run (feeds Table 4)."""

    messages: int = 0
    bytes_total: int = 0
    bytes_by_tag: dict = field(default_factory=dict)
    bytes_by_link: dict = field(default_factory=dict)  # (src, dst) -> bytes

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.bytes_total += msg.nbytes
        self.bytes_by_tag[msg.tag] = self.bytes_by_tag.get(msg.tag, 0) + msg.nbytes
        key = (msg.src, msg.dst)
        self.bytes_by_link[key] = self.bytes_by_link.get(key, 0) + msg.nbytes

    def merge(self, other: "CommStats") -> None:
        """Fold another rank's accounting into this one (real backends
        collect per-rank stats and merge them into the global view)."""
        self.messages += other.messages
        self.bytes_total += other.bytes_total
        for tag, b in other.bytes_by_tag.items():
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + b
        for link, b in other.bytes_by_link.items():
            self.bytes_by_link[link] = self.bytes_by_link.get(link, 0) + b

    @property
    def mbytes_total(self) -> float:
        return self.bytes_total / (1024.0 * 1024.0)
