"""Simulated distributed-memory cluster (the Beowulf stand-in).

A deterministic discrete-event simulation of a message-passing cluster:
per-node virtual clocks, an mpi4py-style ``send``/``bcast``/``recv`` API
(§2.2 of the paper), a latency+bandwidth network model, pickled-payload
size accounting (Table 4), and a pluggable compute-cost model fed by the
logic engine's inference-operation counter.
"""

from repro.cluster.costmodel import (
    CostModel,
    DEFAULT_COST_MODEL,
    OpsCostModel,
    PerRankCostModel,
)
from repro.cluster.message import Message, Tag, payload_nbytes
from repro.cluster.network import FAST_ETHERNET, GIGABIT, INFINIBAND_LIKE, NetworkModel
from repro.cluster.process import ComputeInterval, ProcContext, SimProcess
from repro.cluster.scheduler import CommStats, DeadlockError, Scheduler

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "OpsCostModel",
    "PerRankCostModel",
    "Message",
    "Tag",
    "payload_nbytes",
    "FAST_ETHERNET",
    "GIGABIT",
    "INFINIBAND_LIKE",
    "NetworkModel",
    "ComputeInterval",
    "ProcContext",
    "SimProcess",
    "CommStats",
    "DeadlockError",
    "Scheduler",
]
