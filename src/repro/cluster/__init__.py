"""Simulated distributed-memory cluster (the Beowulf stand-in).

A deterministic discrete-event simulation of a message-passing cluster:
per-node virtual clocks, an mpi4py-style ``send``/``bcast``/``recv`` API
(§2.2 of the paper), a latency+bandwidth network model, wire-codec
payload size accounting (Table 4), and a pluggable compute-cost model
fed by the logic engine's inference-operation counter.

The package re-exports only the two leaf models, :mod:`.costmodel` and
:mod:`.network`, so reading a cost constant loads no simulator.  Import
the simulator itself from its modules: :mod:`.message`, :mod:`.process`
and :mod:`.scheduler`.
"""

from repro.cluster.costmodel import (
    CostModel,
    DEFAULT_COST_MODEL,
    OpsCostModel,
    sequential_seconds,
)
from repro.cluster.network import FAST_ETHERNET, GIGABIT, INFINIBAND_LIKE, NetworkModel

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "OpsCostModel",
    "sequential_seconds",
    "FAST_ETHERNET",
    "GIGABIT",
    "INFINIBAND_LIKE",
    "NetworkModel",
]
