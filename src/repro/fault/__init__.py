"""Fault-tolerance & elasticity subsystem.

Three cooperating layers make the parallel strategies survive an
unreliable pool:

* :mod:`repro.fault.plan` — deterministic fault descriptions
  (:class:`FaultPlan`): worker crashes, stragglers, message loss and
  elastic joins, injected identically by the sim, local and mpi backends;
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

Only the plan layer is imported eagerly — the cluster scheduler depends
on it, and the scheduler must stay importable without dragging in the
parallel package (which the checkpoint layer builds on).
"""

from repro.fault.plan import (
    FaultPlan,
    FaultRecord,
    MessageLoss,
    Straggler,
    WorkerCrash,
    WorkerJoin,
    normalize_plan,
)

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "MessageLoss",
    "Straggler",
    "WorkerCrash",
    "WorkerJoin",
    "normalize_plan",
    "CheckpointState",
    "EpochRecord",
    "load_checkpoint",
    "save_checkpoint",
    "PoolSupervisor",
    "RecoveryError",
    "rebuild_shard",
    "ServiceFaultPlan",
    "ServiceFaultInjector",
    "InjectedFault",
    "normalize_service_plan",
]

_LAZY = {
    "CheckpointState": "repro.fault.checkpoint",
    "EpochRecord": "repro.fault.checkpoint",
    "load_checkpoint": "repro.fault.checkpoint",
    "save_checkpoint": "repro.fault.checkpoint",
    "PoolSupervisor": "repro.fault.recovery",
    "RecoveryError": "repro.fault.recovery",
    "rebuild_shard": "repro.fault.recovery",
    "ServiceFaultPlan": "repro.fault.service",
    "ServiceFaultInjector": "repro.fault.service",
    "InjectedFault": "repro.fault.service",
    "normalize_service_plan": "repro.fault.service",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
