"""Fault-tolerance & elasticity subsystem.

Three cooperating layers make the parallel strategies survive an
unreliable pool:

* :mod:`repro.fault.plan` — deterministic fault descriptions
  (:class:`FaultPlan`): worker crashes, stragglers, message loss and
  elastic joins, injected identically by the sim, local and mpi backends,
  and the one strict JSON format of every plan file, run or service;
* :mod:`repro.fault.checkpoint` — versioned, wire-codec-serialized
  snapshots of master learning state written at epoch boundaries, and
  the machinery behind ``repro resume``;
* :mod:`repro.fault.recovery` — the state and policy of self-healing:
  logical workers decoupled from physical hosts, deterministic state
  reconstruction by replay, reassignment and elastic pool growth (the
  heartbeat/timeout collectives that drive them are
  :class:`repro.parallel.master.Master`'s);
* :mod:`repro.fault.service` — the serving tier's counterpart
  (:class:`ServiceFaultPlan`): connection resets, engine-lease faults,
  scheduler-slot crashes and persistence-write failures injected into
  the live service front door and job scheduler.

The subsystem is strictly opt-in: with no plan (or an empty one) a run
puts byte-for-byte the unstamped task messages on the wire.

Each name below is imported from its layer when it is first read (see
:mod:`repro.util.lazy`), so a run loads only the layers it uses.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    ".plan": (
        "FaultPlan",
        "FaultRecord",
        "MessageLoss",
        "Straggler",
        "WorkerCrash",
        "WorkerJoin",
        "normalize_plan",
    ),
    ".checkpoint": ("CheckpointState", "EpochRecord", "load_checkpoint", "save_checkpoint"),
    ".recovery": ("PoolSupervisor", "RecoveryError", "rebuild_shard"),
    ".service": (
        "ServiceFaultPlan",
        "ServiceFaultInjector",
        "InjectedFault",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
