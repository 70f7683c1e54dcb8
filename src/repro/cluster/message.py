"""Messages exchanged between simulated cluster nodes.

Payloads are arbitrary picklable Python objects; the *marshalled size* of
each payload is what the network model charges for and what the Table 4
communication-volume accounting sums.  Payload types registered with the
compact wire codec (:mod:`repro.parallel.wire` — every task message) are
marshalled by it, and those are the bytes the real backends ship; any
other type is pickled, mirroring LAM/MPI's pickle-like marshalling of
Prolog terms in the paper's implementation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

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


def marshal_payload(payload: object) -> tuple[bytes, bool]:
    """``(bytes, encoded)``: the payload as it is sized and shipped.

    ``encoded`` says which form it took (wire codec when the payload's
    type has one, pickle otherwise) and travels with the bytes so that
    :func:`unmarshal_payload` can invert it.
    """
    # Imported here: the cluster layer must stay importable without the
    # parallel package, and the codec module itself imports message types.
    from repro.parallel import wire

    data = wire.encode_always(payload)
    if data is not None:
        return data, True
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), False


def unmarshal_payload(data: bytes, encoded: bool) -> object:
    """Inverse of :func:`marshal_payload`."""
    if not encoded:
        return pickle.loads(data)
    from repro.parallel import wire

    return wire.decode(data)


def payload_nbytes(payload: object) -> int:
    """Marshalled size of a payload, in bytes."""
    return len(marshal_payload(payload)[0])


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
