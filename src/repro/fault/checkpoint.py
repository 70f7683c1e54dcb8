"""Versioned checkpoints of master learning state.

A checkpoint is one :class:`CheckpointState` payload serialized with the
compact wire codec of :mod:`repro.parallel.wire` (the codec is what the
cluster already trusts for byte-exact, hash-seed-independent marshalling
of clauses and terms).  Checkpoints are written at epoch boundaries —
the only points where the distributed learning state is fully described
by master-side data:

* the theory accepted so far and the per-epoch logs (from which every
  worker's example-liveness and seed-draw history is deterministically
  replayable, see :mod:`repro.fault.recovery`);
* the covering loop's counters (epoch, remaining positives, stall);
* for masters that own an RNG (sequential MDIE, the coverage-parallel
  baseline), the exact generator state.

``repro resume <ckpt>`` rebuilds the run mid-flight and continues it
bit-identically: the same rules are learned in the same order over the
remaining epochs.

File format::

    0xC3 | wire-version | type-code 21 | symbols | body   (see wire.py)

The payload type has a registered codec, the one format of messages and
files alike, so any process can read any checkpoint.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.ilp.config import signature_mismatches
from repro.logic.clause import Clause
from repro.parallel import wire

__all__ = [
    "CHECKPOINT_VERSION",
    "EpochRecord",
    "CheckpointState",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_path",
    "records_from_epoch_logs",
    "epoch_logs_from_records",
    "verify_config",
    "CheckpointError",
]

CHECKPOINT_VERSION = 1

#: wire type code of the checkpoint payload (append-only registry).
_WIRE_CODE = 21


class CheckpointError(ValueError):
    """Unreadable, corrupt or incompatible checkpoint."""


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's durable outcome (the replayable part of an EpochLog)."""

    epoch: int
    bag_size: int
    accepted: tuple[Clause, ...]
    pos_covered: int


@dataclass(frozen=True)
class CheckpointState:
    """Everything needed to continue a run from an epoch boundary."""

    version: int
    #: "mdie" | "p2mdie" | "covpar"
    algo: str
    seed: int
    n_workers: int
    total_pos: int
    #: completed epochs (== len(epoch_logs)).
    epoch: int
    remaining: int
    stall: int
    theory: tuple[Clause, ...]
    epoch_logs: tuple[EpochRecord, ...]
    #: master-side seed-pool masks (mdie / covpar; 0 elsewhere).
    alive_mask: int = 0
    failed_mask: int = 0
    #: engine operations consumed so far (sequential accounting).
    ops: int = 0
    #: ``random.Random.getstate()`` of the master's RNG, when it owns one.
    rng_state: Optional[tuple] = None
    #: sequential per-epoch log: (example, rule-or-None, covered, ops).
    mdie_log: tuple = ()
    #: guard against resuming under a different configuration.
    config_sig: str = ""
    #: free-form provenance (dataset, scale, width, backend, ...).
    meta: tuple[tuple[str, str], ...] = ()

    def replace(self, **kw) -> "CheckpointState":
        return replace(self, **kw)

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)


def records_from_epoch_logs(logs: Sequence) -> tuple[EpochRecord, ...]:
    """EpochRecord views of master :class:`~repro.parallel.master.EpochLog` entries."""
    return tuple(
        EpochRecord(
            epoch=log.epoch,
            bag_size=log.bag_size,
            accepted=tuple(log.accepted),
            pos_covered=log.pos_covered,
        )
        for log in logs
    )


def epoch_logs_from_records(records: Sequence[EpochRecord]) -> list:
    # Imported here: the master module itself imports this one to write
    # checkpoints, so a top-level import would be circular.
    from repro.parallel.master import EpochLog

    return [
        EpochLog(
            epoch=r.epoch,
            bag_size=r.bag_size,
            accepted=list(r.accepted),
            pos_covered=r.pos_covered,
        )
        for r in records
    ]


# -- wire codec -------------------------------------------------------------------


def _enc_checkpoint(e, m: CheckpointState) -> None:
    e.u(m.version)
    e.sym(m.algo)
    e.z(m.seed)
    e.u(m.n_workers)
    e.u(m.total_pos)
    e.u(m.epoch)
    e.u(m.remaining)
    e.u(m.stall)
    e.clauses(m.theory)
    e.u(len(m.epoch_logs))
    for rec in m.epoch_logs:
        e.u(rec.epoch)
        e.u(rec.bag_size)
        e.clauses(rec.accepted)
        e.u(rec.pos_covered)
    e.bitset(m.alive_mask)
    e.bitset(m.failed_mask)
    e.u(m.ops)
    e.flag(m.rng_state is not None)
    if m.rng_state is not None:
        version, internal, gauss = m.rng_state
        e.u(version)
        e.u(len(internal))
        for v in internal:
            e.u(v)
        e.flag(gauss is not None)
        if gauss is not None:
            e.body += wire._pack_f64(gauss)
    e.u(len(m.mdie_log))
    for example, rule, covered, ops in m.mdie_log:
        e.term(example)
        e.flag(rule is not None)
        if rule is not None:
            e.clause(rule)
        e.u(covered)
        e.u(ops)
    e.sym(m.config_sig)
    e.u(len(m.meta))
    for k, v in m.meta:
        e.sym(k)
        e.sym(v)


def _dec_checkpoint(d) -> CheckpointState:
    version = d.u()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    algo = d.sym()
    seed = d.z()
    n_workers = d.u()
    total_pos = d.u()
    epoch = d.u()
    remaining = d.u()
    stall = d.u()
    theory = d.clauses()
    epoch_logs = []
    for _ in range(d.u()):
        epoch_logs.append(
            EpochRecord(epoch=d.u(), bag_size=d.u(), accepted=d.clauses(), pos_covered=d.u())
        )
    alive_mask = d.bitset()
    failed_mask = d.bitset()
    ops = d.u()
    rng_state = None
    if d.flag():
        rng_version = d.u()
        internal = tuple(d.u() for _ in range(d.u()))
        gauss = None
        if d.flag():
            (gauss,) = wire._unpack_f64(d.data, d.pos)
            d.pos += 8
        rng_state = (rng_version, internal, gauss)
    mdie_log = []
    for _ in range(d.u()):
        example = d.term()
        rule = d.clause() if d.flag() else None
        mdie_log.append((example, rule, d.u(), d.u()))
    return CheckpointState(
        version=version,
        algo=algo,
        seed=seed,
        n_workers=n_workers,
        total_pos=total_pos,
        epoch=epoch,
        remaining=remaining,
        stall=stall,
        theory=theory,
        epoch_logs=tuple(epoch_logs),
        alive_mask=alive_mask,
        failed_mask=failed_mask,
        ops=ops,
        rng_state=rng_state,
        mdie_log=tuple(mdie_log),
        config_sig=d.sym(),
        meta=tuple((d.sym(), d.sym()) for _ in range(d.u())),
    )


wire.register_codec(CheckpointState, _WIRE_CODE, _enc_checkpoint, _dec_checkpoint)


# -- file I/O ---------------------------------------------------------------------


def save_checkpoint(path: str, state: CheckpointState) -> str:
    """Write one checkpoint file atomically; returns the path."""
    data = wire.encode_always(state)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str) -> CheckpointState:
    """Read one ``.ckpt`` file back into a :class:`CheckpointState`.

    Raises :class:`CheckpointError` on truncated, corrupt or
    non-checkpoint payloads (decoder underruns included).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        state = wire.decode(data)
    except (wire.WireError, IndexError, struct.error, UnicodeDecodeError) as exc:
        # Truncated/corrupt bodies surface as decoder underruns, not
        # WireError — all of them mean the same thing here.
        raise CheckpointError(f"{path}: {exc}") from exc
    if not isinstance(state, CheckpointState):
        raise CheckpointError(f"{path}: not a checkpoint (got {type(state).__name__})")
    return state


def checkpoint_path(directory: str, epoch: int) -> str:
    """The ``epoch_NNNN.ckpt`` naming rule for epoch-boundary checkpoints."""
    return os.path.join(directory, f"epoch_{epoch:04d}.ckpt")


def verify_config(state: CheckpointState, config_sig: str) -> None:
    """Raise when resuming under a configuration the run was not made with.

    ``config_sig`` is the resuming run's :meth:`ILPConfig.signature`.  An
    empty signature on either side is unknown and accepted; a checkpoint
    written before signatures were versioned (``repr(config)``) is
    accepted when it names the same configuration — see
    :func:`repro.ilp.config.signature_mismatches`.
    """
    saved = state.config_sig
    if not saved or not config_sig or saved == config_sig:
        return
    diffs = signature_mismatches(saved, config_sig)
    if diffs is None:
        diffs = [f"saved: {saved!r}, current: {config_sig!r}"]
    if diffs:
        raise CheckpointError(
            "checkpoint was written under a different ILP configuration; "
            "bit-identical resumption is impossible (" + "; ".join(diffs) + ")"
        )
