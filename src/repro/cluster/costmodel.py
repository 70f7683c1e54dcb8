"""Compute-cost models: engine operations → virtual seconds.

The logic engine counts *inference operations* (candidate unifications);
a :class:`CostModel` converts an operation delta into virtual CPU seconds
on a simulated node.  Using operation counts instead of host wall time
makes runs deterministic and host-independent while preserving relative
compute costs exactly (every coverage test costs what it costs *on the
data it runs on* — the basis of the paper's data-parallel speedup).

``sec_per_op`` is calibrated so that paper-scale sequential runs land in
the "thousands of seconds" regime the paper reports (§5.3).
:func:`sequential_seconds` charges a sequential run under the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ilp.mdie import MDIEResult

__all__ = ["CostModel", "OpsCostModel", "DEFAULT_COST_MODEL", "sequential_seconds"]


class CostModel:
    """Interface: convert work measures into virtual seconds."""

    def seconds_for_ops(self, ops: int) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class OpsCostModel(CostModel):
    """Deterministic model: ``ops * sec_per_op``.

    The default ``sec_per_op`` of 40 µs corresponds to a 2005-era node
    resolving ~25k candidate unifications per second through a Prolog
    meta-level — deliberately coarse, since only *ratios* matter for
    speedup/crossover shapes.
    """

    sec_per_op: float = 40e-6

    def __post_init__(self):
        if self.sec_per_op <= 0:
            raise ValueError("sec_per_op must be positive")

    def seconds_for_ops(self, ops: int) -> float:
        return ops * self.sec_per_op


DEFAULT_COST_MODEL = OpsCostModel()


def sequential_seconds(result: MDIEResult, cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Virtual execution time of a sequential MDIE run.

    The sequential algorithm runs on one node with no communication, so its
    virtual time is exactly its engine work under the same cost model the
    cluster charges — making Table 2's speedup ratios well-defined.
    """
    return cost_model.seconds_for_ops(result.ops)
