"""Wire-codec fuzzing: malformed bytes must fail structurally.

The decode contract, stated in ``wire.decode``'s error handling: whatever
bytes arrive — truncated at any offset, bit-flipped anywhere, garbage
behind a valid header — the decoder either returns a message object or
raises :class:`~repro.parallel.wire.WireError` (a ``ValueError``).  No
other exception type may escape: receivers catch ``WireError`` to
refuse bad payloads (registry reads, job recovery, the front door), and
an ``IndexError`` leaking from the varint reader would turn a corrupt
artifact into a crash.

Runs over *every* registered message type — so a new message
automatically inherits the fuzz coverage through ``test_wire.MESSAGES`` —
and over the committed bytes of every retired code, which old
checkouts and old registry roots may still hand a reader.
"""

import random

import pytest

from repro.parallel import wire

from test_wire import MESSAGE_IDS, MESSAGES, RETIRED  # same directory; covers every type code

#: A ``.cert`` body a sampled run published beside its theory (code 29).
CERT = bytes.fromhex(next(e["hex"] for e in RETIRED if e["code"] == 29))
RETIRED_CERT = "retired message type code 29 \\(CoverageCertificate"


def _payloads():
    out = [(name, wire.encode_always(m)) for name, m in zip(MESSAGE_IDS, MESSAGES)]
    out.extend((e["id"], bytes.fromhex(e["hex"])) for e in RETIRED)
    return out


PAYLOADS = _payloads()


def _decode(data: bytes):
    """Decode under the fuzz contract: value or WireError, nothing else."""
    try:
        return wire.decode(data)
    except wire.WireError:
        return None
    # anything else propagates and fails the test


class TestTruncation:
    @pytest.mark.parametrize("name,data", PAYLOADS, ids=[n for n, _ in PAYLOADS])
    def test_every_prefix_fails_structurally(self, name, data):
        """No prefix of a valid message may crash — or decode to a full
        message (the trailing-bytes check has no bytes to object to, but
        a shorter body must hit a reader or come back as a WireError)."""
        for cut in range(len(data)):
            _decode(data[:cut])

    def test_truncated_certificate_never_roundtrips(self):
        """Every prefix of an old ``.cert`` body that still carries its type
        code fails, and names the retired format rather than a bad body."""
        for cut in range(3, len(CERT) + 1):
            with pytest.raises(wire.WireError, match=RETIRED_CERT):
                wire.decode(CERT[:cut])


class TestBitFlips:
    @pytest.mark.parametrize("name,data", PAYLOADS, ids=[n for n, _ in PAYLOADS])
    def test_single_byte_corruption_fails_structurally(self, name, data):
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(64):
            pos = rng.randrange(len(data))
            flip = bytes([data[pos] ^ (1 << rng.randrange(8))])
            _decode(data[:pos] + flip + data[pos + 1 :])

    def test_flipped_certificate_fails_or_stays_typed(self):
        """A corrupted old ``.cert`` body never comes back as some other
        object: with its header intact it fails on the retired code before
        the body is read, whatever the flip did to the body."""
        rng = random.Random(29)
        for _ in range(128):
            pos = rng.randrange(3, len(CERT))  # keep the header valid
            flip = bytes([CERT[pos] ^ (1 << rng.randrange(8))])
            with pytest.raises(wire.WireError, match=RETIRED_CERT):
                wire.decode(CERT[:pos] + flip + CERT[pos + 1 :])


class TestGarbage:
    def test_random_bytes_never_crash(self):
        rng = random.Random(0)
        for _ in range(256):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 128)))
            _decode(blob)

    def test_valid_header_garbage_body(self):
        """A well-formed magic/version/type prefix glued to noise must
        still fail structurally for every registered type code."""
        rng = random.Random(1)
        codes = {data[2] for _, data in PAYLOADS}
        for code in sorted(codes):
            for _ in range(32):
                body = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 96)))
                _decode(PAYLOADS[0][1][:2] + bytes([code]) + body)

    def test_unknown_type_code_rejected(self):
        header = PAYLOADS[0][1][:2]
        with pytest.raises(wire.WireError, match="unknown message type"):
            wire.decode(header + bytes([250]))
