"""The simulated cluster's parts (the Beowulf stand-in).

What a message-passing cluster is made of, for every substrate: an
mpi4py-style ``send``/``bcast``/``recv`` API over per-rank contexts
(:mod:`.process`, §2.2 of the paper), messages sized by their wire-codec
bytes and summed per run (:mod:`.message`, Table 4), and the two models
the simulator prices them with: a latency+bandwidth network
(:mod:`.network`) and a compute-cost model fed by the logic engine's
inference-operation counter (:mod:`.costmodel`).

The simulator itself is :mod:`repro.backend.sim`; ``SimBackend(network=,
cost_model=)`` is the one place a run's fabric and cost model are set.
The package re-exports only the two leaf models, so reading a cost
constant loads no simulator.
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
