"""Messages exchanged between simulated cluster nodes.

A payload is one of the message types registered with the compact wire
codec (:mod:`repro.parallel.wire`): every task message and the
fault-tolerance protocol's pings, pongs and routing updates.  Its wire
bytes are its *marshalled size* — what the network model charges for and
what the Table 4 communication-volume accounting sums — and the bytes the
real backends ship.  A payload of any other type is refused at send with
a :class:`~repro.parallel.wire.WireError` naming its type.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Message", "payload_nbytes", "marshal_payload", "unmarshal_payload", "Tag"]


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
