"""Helpers shared by the fault-tolerance tests."""

from repro.fault.plan import FaultPlan, MessageLoss, Straggler, WorkerCrash, WorkerJoin
from repro.fault.service import ConnReset, LeaseFault, PersistFault, ServiceFaultPlan, SlotCrash

#: a run plan with every event kind, each field off its default somewhere.
RUN_PLAN = FaultPlan(
    crashes=(
        WorkerCrash(rank=2, on_recv=3, tag="start_pipeline"),
        WorkerCrash(rank=3, at_time=1.25),
    ),
    stragglers=(Straggler(rank=1, factor=4.0, after_time=0.5),),
    losses=(MessageLoss(src=0, dst=2, nth=2),),
    joins=(WorkerJoin(rank=5, epoch=2),),
    timeout=3.5,
    supervise=True,
)
#: the same for the service tier.
SERVICE_PLAN = ServiceFaultPlan(
    resets=(
        ConnReset(on_request=3, op="query", when="after"),
        ConnReset(on_request=7),
    ),
    leases=(
        LeaseFault(on_lease=2, mode="fail"),
        LeaseFault(on_lease=5, mode="slow", delay=0.25),
    ),
    crashes=(SlotCrash(on_job=1),),
    persist=(PersistFault(on_write=4, target="registry"),),
)


def run_args(ds):
    return (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)


def log_tuples(res):
    """The comparable core of the epoch logs (excludes FT-only cache
    counters, which fault-free runs don't collect)."""
    return [(l.epoch, l.bag_size, tuple(l.accepted), l.pos_covered) for l in res.epoch_logs]
