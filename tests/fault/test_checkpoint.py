"""Checkpoint format: wire round-trip, file I/O, guards."""

import os
import random
import subprocess
import sys

import pytest

from repro.fault.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointState,
    EpochRecord,
    checkpoint_path,
    epoch_logs_from_records,
    load_checkpoint,
    records_from_epoch_logs,
    save_checkpoint,
    verify_config,
)
from repro.ilp.config import ILPConfig
from repro.logic.parser import parse_clause, parse_term
from repro.parallel import wire
from repro.parallel.master import EpochLog

RULE = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
UNIT = parse_clause("daughter(mary, ann).")


def make_state(**kw) -> CheckpointState:
    rng = random.Random(42)
    rng.gauss(0, 1)  # populate gauss_next so the optional float is exercised
    defaults = dict(
        version=CHECKPOINT_VERSION,
        algo="mdie",
        seed=-7,
        n_workers=4,
        total_pos=60,
        epoch=3,
        remaining=12,
        stall=1,
        theory=(RULE, UNIT),
        epoch_logs=(
            EpochRecord(epoch=1, bag_size=9, accepted=(RULE,), pos_covered=20),
            EpochRecord(epoch=2, bag_size=4, accepted=(), pos_covered=0),
        ),
        alive_mask=(1 << 60) - 1 - 0b1011,
        failed_mask=0b100,
        ops=123456789,
        rng_state=rng.getstate(),
        mdie_log=(
            (parse_term("daughter(mary, ann)"), RULE, 20, 5000),
            (parse_term("daughter(eve, tom)"), None, 0, 777),
        ),
        config_sig="ILPConfig(...)",
        meta=(("dataset", "krki"), ("scale", "small")),
    )
    defaults.update(kw)
    return CheckpointState(**defaults)


class TestWireRoundTrip:
    def test_full_state(self):
        st = make_state()
        data = wire.encode_always(st)
        assert data is not None
        assert wire.decode(data) == st

    def test_minimal_state(self):
        st = make_state(
            theory=(), epoch_logs=(), rng_state=None, mdie_log=(), meta=(), config_sig=""
        )
        assert wire.decode(wire.encode_always(st)) == st

    def test_rng_state_restores_generator(self):
        st = make_state()
        restored = wire.decode(wire.encode_always(st))
        a, b = random.Random(), random.Random()
        a.setstate(st.rng_state)
        b.setstate(restored.rng_state)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_encoding_ignores_transport_gate(self):
        """The transports ship the wire codec's bytes, and the checkpoint
        has a codec, so it is the file format wherever it travels."""
        from repro.cluster.message import marshal_payload

        assert marshal_payload(make_state()) == wire.encode_always(make_state())

    def test_bytes_stable_across_hash_seeds(self):
        prog = (
            "from tests.fault.test_checkpoint import make_state\n"
            "from repro.parallel import wire\n"
            "print(wire.encode_always(make_state()).hex())\n"
        )
        here = wire.encode_always(make_state()).hex()
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + root + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            out = subprocess.run(
                [sys.executable, "-c", prog], capture_output=True, text=True, env=env, cwd=root
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == here


class TestFileIO:
    def test_save_load(self, tmp_path):
        st = make_state()
        path = checkpoint_path(str(tmp_path), st.epoch)
        assert path.endswith("epoch_0003.ckpt")
        save_checkpoint(path, st)
        assert load_checkpoint(path) == st

    def test_load_garbage_raises(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_non_checkpoint_payload_raises(self, tmp_path):
        from repro.parallel.messages import Stop

        path = str(tmp_path / "stop.ckpt")
        with open(path, "wb") as fh:
            fh.write(wire.encode_always(Stop()))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)


class TestGuards:
    def test_verify_config_mismatch(self):
        st = make_state()
        verify_config(st, st.config_sig)  # identical: fine
        verify_config(make_state(config_sig=""), "whatever")  # unknown: fine
        with pytest.raises(CheckpointError, match="different ILP configuration"):
            verify_config(st, "ILPConfig(other)")

    def test_mismatch_names_fields_and_values(self):
        saved = ILPConfig(noise=3, engine_max_depth=5)
        st = make_state(config_sig=saved.signature())
        verify_config(st, saved.signature())
        with pytest.raises(CheckpointError) as err:
            verify_config(st, ILPConfig(recall=7).signature())
        text = str(err.value)
        assert "noise: saved 3, current 0" in text
        assert "engine_max_depth: saved 5, current 8" in text
        assert "recall: saved 20, current 7" in text
        # only the differing fields are spelled out, not both signatures
        assert "max_nodes" not in text and len(text) < 300


class TestEpochLogConversion:
    def test_round_trip(self):
        logs = [
            EpochLog(epoch=1, bag_size=5, accepted=[RULE], pos_covered=7),
            EpochLog(epoch=2, bag_size=0, accepted=[], pos_covered=0),
        ]
        back = epoch_logs_from_records(records_from_epoch_logs(logs))
        assert [(l.epoch, l.bag_size, l.accepted, l.pos_covered) for l in back] == [
            (l.epoch, l.bag_size, l.accepted, l.pos_covered) for l in logs
        ]
