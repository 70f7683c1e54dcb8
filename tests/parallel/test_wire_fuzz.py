"""Wire-codec fuzzing: malformed bytes must fail structurally.

The decode contract, stated in ``wire.decode``'s error handling: whatever
bytes arrive — truncated at any offset, bit-flipped anywhere, garbage
behind a valid header — the decoder either returns a message object or
raises :class:`~repro.parallel.wire.WireError` (a ``ValueError``).  No
other exception type may escape: receivers catch ``WireError`` to
quarantine bad payloads (registry recovery, the service front door), and
an ``IndexError`` leaking from the varint reader would turn a corrupt
artifact into a crash.

Runs over *every* registered message type — including the sampled-
coverage additions (codes 30/31) and the out-of-package certificate
codec (code 29) — so a new message automatically inherits the fuzz
coverage through ``test_wire.MESSAGES``.
"""

import random

import pytest

from repro.ilp.sampling import (
    ClauseCertificate,
    CoverageCertificate,
    certificate_from_bytes,
    certificate_to_bytes,
    _ensure_codec,
)
from repro.parallel import wire

from test_wire import MESSAGES, layout_name  # same directory; covers every type code

CERT = CoverageCertificate(
    seed=7,
    fraction=0.25,
    delta=0.05,
    min_stratum=16,
    strata=(("pos", 3, 5), ("neg", 2, 4)),
    entries=(
        ClauseCertificate(
            clause="daughter(A, B) :- parent(B, A), female(A).",
            est_pos=4,
            est_neg=0,
            sample_pos_n=3,
            sample_neg_n=2,
            exact_pos=5,
            exact_neg=0,
            exact_good=True,
        ),
        ClauseCertificate("p.", 0, 0, 0, 0, 1, 0, True, deferred=True),
    ),
)


def _payloads():
    _ensure_codec()
    out = [(layout_name(m), wire.encode_always(m)) for m in MESSAGES]
    out.append(("CoverageCertificate", certificate_to_bytes(CERT)))
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
        data = certificate_to_bytes(CERT)
        for cut in range(3, len(data)):
            try:
                out = certificate_from_bytes(data[:cut])
            except (wire.WireError, ValueError):
                continue
            assert out != CERT, f"truncation at {cut} roundtripped"


class TestBitFlips:
    @pytest.mark.parametrize("name,data", PAYLOADS, ids=[n for n, _ in PAYLOADS])
    def test_single_byte_corruption_fails_structurally(self, name, data):
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(64):
            pos = rng.randrange(len(data))
            flip = bytes([data[pos] ^ (1 << rng.randrange(8))])
            _decode(data[:pos] + flip + data[pos + 1 :])

    def test_flipped_certificate_fails_or_stays_typed(self):
        """A corrupted certificate either fails to decode or still comes
        back as a CoverageCertificate — never another object, never a
        non-Wire crash.  (Semantic equality is *not* asserted: a flip in
        a boolean flag byte decodes to the same truth value, which is a
        non-canonical but harmless encoding, not corruption.)"""
        data = certificate_to_bytes(CERT)
        rng = random.Random(29)
        for _ in range(128):
            pos = rng.randrange(3, len(data))  # keep the header valid
            flip = bytes([data[pos] ^ (1 << rng.randrange(8))])
            blob = data[:pos] + flip + data[pos + 1 :]
            try:
                out = certificate_from_bytes(blob)
            except (wire.WireError, ValueError):
                continue
            assert isinstance(out, CoverageCertificate)


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

    def test_wrong_type_behind_certificate_reader(self):
        for name, data in PAYLOADS:
            if name == "CoverageCertificate":
                continue
            with pytest.raises((wire.WireError, ValueError)):
                certificate_from_bytes(data)
