"""ILP configuration — the paper's constraint set ``C``.

One :class:`ILPConfig` value parameterises both the sequential MDIE
algorithm (Fig. 1) and P²-MDIE (Fig. 5): language constraints (clause
length, variable-introduction depth ``i``), acceptance constraints (noise,
minimum positive cover), search resources (the paper tunes "a threshold on
the number of rules that can be generated on each search"), and the
pipeline width ``W``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional

from repro.logic.engine import Engine, QueryBudget

__all__ = [
    "ILPConfig",
    "NO_LIMIT",
    "SIGNATURE_VERSION",
    "SIGNATURE_FIELDS",
    "signature_mismatches",
]

#: Sentinel for an unconstrained pipeline width (the paper's "nolimit").
NO_LIMIT: Optional[int] = None

#: Format version of :meth:`ILPConfig.signature`.  Bump it when a field
#: joins or leaves :data:`SIGNATURE_FIELDS`; a field that leaves goes into
#: :data:`_RETIRED` with the values the current code still reproduces.
SIGNATURE_VERSION = 4

#: The fields a signature spells out, in order: every config field.
#: Explicit rather than ``dataclasses.fields``: adding a config field must
#: be a decision (list it here and bump :data:`SIGNATURE_VERSION`), which
#: ``tests/ilp/test_config_signature.py`` enforces.
SIGNATURE_FIELDS = (
    "max_clause_length",
    "var_depth",
    "recall",
    "max_bottom_literals",
    "noise",
    "min_pos",
    "max_nodes",
    "pipeline_width",
    "engine_max_depth",
    "engine_max_ops",
)

@dataclass(frozen=True)
class ILPConfig:
    """Constraints ``C`` plus search/pipeline parameters.

    Everything here can change what is learned or what a run costs.  The
    optimisations that cannot — coverage inheritance, variant-keyed
    evaluation caches and rule bags, the saturation cache, the wire codec,
    term interning, the SLD machine's memo table and argument indexes — are
    not configuration and have no switch.  Neither is the rest of the
    paper's April learner, which has one setting in every run: a random
    seed draw, the P − N score (:func:`repro.ilp.heuristics.score_rule`),
    a seed no good rule covers left uncovered, rule bodies evaluated in
    the order refinement built them, and a top-down breadth-first search
    (:func:`repro.ilp.search.learn_rule`).  :meth:`signature` is how
    checkpoints and registry records name a configuration.

    Attributes
    ----------
    max_clause_length:
        Maximum number of *body* literals in a rule.
    var_depth:
        Progol's ``i`` parameter: number of saturation layers when building
        the bottom clause (how far new variables may be chained).
    recall:
        Default recall bound per mode declaration (max solutions retrieved
        per input-binding when saturating); individual modes may override.
    max_bottom_literals:
        Hard cap on bottom-clause body size.
    noise:
        Maximum number of negative examples a rule may cover and still be
        "consistent" (global count, aggregated over subsets in the
        parallel algorithm).
    min_pos:
        Minimum number of positive examples a rule must cover to be "good".
    max_nodes:
        Maximum number of rules generated per ``learn_rule`` search — the
        knob the paper used to bound sequential runs to two hours.
    pipeline_width:
        The paper's ``W``: max rules streamed between pipeline stages
        (``None`` = "nolimit").
    engine_max_depth / engine_max_ops:
        Resource bounds for each coverage-test query.
    """

    max_clause_length: int = 4
    var_depth: int = 2
    recall: int = 20
    max_bottom_literals: int = 60
    noise: int = 0
    min_pos: int = 2
    max_nodes: int = 600
    pipeline_width: Optional[int] = 10
    engine_max_depth: int = 8
    engine_max_ops: int = 200_000

    # Shim, not a field: bench/ still passes Engine(kernel=config.coverage_kernel);
    # ROADMAP 1(b) deletes it.
    coverage_kernel = None

    def __post_init__(self):
        if self.max_clause_length < 1:
            raise ValueError("max_clause_length must be >= 1")
        if self.var_depth < 1:
            raise ValueError("var_depth must be >= 1")
        if self.recall < 1:
            raise ValueError("recall must be >= 1")
        if self.max_bottom_literals < 1:
            raise ValueError("max_bottom_literals must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.min_pos < 1:
            raise ValueError("min_pos must be >= 1")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.pipeline_width is not None and self.pipeline_width < 1:
            raise ValueError("pipeline_width must be >= 1 or None (nolimit)")

    def signature(self) -> str:
        """The versioned canonical string that names this configuration.

        Checkpoints, job outcomes and registry records carry it as
        ``config_sig``; ``repro resume`` compares it (through
        :func:`signature_mismatches`) before continuing a run.  Unlike
        ``repr(config)``, which it replaced, it does not change when a
        field that cannot affect results is added, renamed or retired.
        """
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in SIGNATURE_FIELDS)
        return f"ILPConfig.v{SIGNATURE_VERSION}({body})"

    def engine_budget(self) -> QueryBudget:
        return QueryBudget(max_depth=self.engine_max_depth, max_ops=self.engine_max_ops)

    def make_engine(self, kb) -> Engine:
        """The engine every learner, worker and query tier proves goals on."""
        return Engine(kb, self.engine_budget())

    def replace(self, **kw) -> "ILPConfig":
        return replace(self, **kw)


# -- signature comparison -----------------------------------------------------------

_SIGNATURE_RE = re.compile(r"ILPConfig(?:\.v\d+)?\((.*)\)\Z", re.S)

#: Fields an older signature may carry that this version no longer has,
#: each with the values under which this code still reproduces the saved
#: run (``None``: any value).  The four switches last signed by version 0
#: chose between a reference path and the optimised one that is now the
#: only one: on (``True``) or unset (``None``, which resolved to on).
#: Sampled coverage, last signed by version 1, was a screening mode that
#: is gone: off (``False``) or unset (``None``, which resolved to off) is
#: exact evaluation, and with it off its sample parameters never ran.
#: The coverage kernel, which only version 0 spelled, chose between two
#: engines held bit-identical in theories, bitsets and epoch logs: any value.
#: The four learner options last signed by version 2 each had one value in
#: every shipped run, the one this code still runs: the P − N heuristic,
#: a random seed draw, uncoverable seeds skipped, bodies not reordered.
#: The search strategy, last signed by version 3, was breadth-first in
#: every shipped run; the beam width it signed beside it was never read
#: under breadth-first: any value.
_RETIRED = {
    "coverage_inheritance": ("True", "None"),
    "clause_fingerprints": ("True", "None"),
    "saturation_cache": ("True", "None"),
    "wire_codec": ("True", "None"),
    "coverage_sampling": ("False", "None"),
    "sample_fraction": None,
    "sample_min": None,
    "sample_delta": None,
    "coverage_kernel": None,
    "heuristic": ("'coverage'",),
    "select_seed_randomly": ("True",),
    "on_uncoverable": ("'skip'",),
    "reorder_body": ("False",),
    "search_strategy": ("'bfs'",),
    "beam_width": None,
}


def _signature_fields(sig: str) -> Optional[dict[str, str]]:
    """``{field: repr(value)}`` of a signature of any version, None if ``sig`` is not one."""
    m = _SIGNATURE_RE.match(sig)
    if m is None:
        return None
    items = [item.partition("=") for item in m.group(1).split(", ")]
    if not all(sep for _, sep, _ in items):
        return None
    return {name: value for name, _, value in items}


def signature_mismatches(saved: str, current: str) -> Optional[list[str]]:
    """Why a run recorded under ``saved`` cannot continue under ``current``.

    One line per differing field, naming the field and both values; an
    empty list when the two describe the same configuration — which
    includes an older ``saved`` whose surviving fields all match and whose
    retired fields all hold a value :data:`_RETIRED` accepts.  None when
    either string is not a config signature at all (the caller can only
    compare them whole).
    """
    old_fields, new_fields = _signature_fields(saved), _signature_fields(current)
    if old_fields is None or new_fields is None:
        return None
    out = [
        f"{name}: saved {old_fields.get(name, 'nothing')}, current {value}"
        for name, value in new_fields.items()
        if old_fields.get(name) != value
    ]
    for name, value in old_fields.items():
        if name in new_fields:
            continue  # compared above
        if name in _RETIRED and (_RETIRED[name] is None or value in _RETIRED[name]):
            continue
        out.append(f"{name}: saved {value}, but this version has no such setting")
    return out
