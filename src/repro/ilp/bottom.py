"""Bottom clause (most-specific clause ⊥e) construction.

``build_msh`` in the paper's Fig. 1: given a seed example ``e``, background
knowledge ``B`` and constraints ``C``, produce the most specific clause
that entails ``e`` within the language bias.  This is Muggleton's MDIE
saturation:

1. The head is the example with constants lifted to variables according to
   the matching ``modeh`` template (one variable per (constant, type)).
2. Body literals are added in ``var_depth`` layers.  A body mode's ``+``
   (input) arguments are instantiated with every combination of in-scope
   terms of the right type discovered in *earlier* layers; the engine
   retrieves up to ``recall`` answers per instantiation; each answer is
   variablized (outputs become variables, ``#`` arguments stay constant)
   and appended.

The resulting :class:`BottomClause` both *is* a clause (the most specific
rule) and *indexes* the refinement search: every learned rule is a
subsequence of its literals (see :mod:`repro.ilp.refinement`).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeDecl, ModeSet
from repro.logic.clause import Clause
from repro.logic.engine import Engine
from repro.logic.terms import Const, Struct, Term, Var, fresh_var

__all__ = [
    "BottomLiteral",
    "BottomClause",
    "build_bottom",
    "build_bottom_cached",
    "SaturationError",
]


class SaturationError(ValueError):
    """No head mode matches the seed example."""


@dataclass(frozen=True)
class BottomLiteral:
    """A variablized body literal plus its dataflow metadata."""

    literal: Term
    input_vars: frozenset
    output_vars: frozenset

    def __str__(self) -> str:
        return str(self.literal)


@dataclass
class BottomClause:
    """The saturated most-specific clause for one seed example."""

    seed: Term
    head: Term
    literals: list[BottomLiteral]
    head_vars: frozenset

    def as_clause(self) -> Clause:
        return Clause(self.head, tuple(bl.literal for bl in self.literals))

    def __str__(self) -> str:
        return str(self.as_clause())

    def most_general_rule(self) -> Clause:
        """The search's START_RULE: bare head, empty body."""
        return Clause(self.head, ())


class _VarNamer:
    """Deterministic readable variable names A, B, ..., Z, V26, V27, ..."""

    _LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def __init__(self):
        self.n = 0

    def next(self) -> Var:
        i = self.n
        self.n += 1
        if i < len(self._LETTERS):
            return Var(self._LETTERS[i])
        return Var(f"V{i}")


def _match_head_mode(example: Term, modes: ModeSet) -> ModeDecl:
    if not isinstance(example, Struct):
        raise SaturationError(f"example must be a compound term: {example}")
    mode = modes.head_mode_for(example.indicator)
    if mode is None:
        raise SaturationError(f"no modeh matches example {example}")
    return mode


def build_bottom(
    example: Term,
    engine: Engine,
    modes: ModeSet,
    config: ILPConfig,
    max_combos_per_mode: int = 2000,
) -> BottomClause:
    """Saturate ``example`` against ``engine.kb`` under the mode bias.

    Deterministic: iteration follows mode declaration order and
    first-discovery order of in-scope terms.
    """
    head_mode = _match_head_mode(example, modes)
    namer = _VarNamer()
    return _saturate(example, engine, modes, config, head_mode, namer, max_combos_per_mode)


# -- saturation cache --------------------------------------------------------------
#
# kb -> modes -> {(kb.version, example, bias/budget key) ->
# (BottomClause | SaturationError, ops_spent)}.  Both outer levels are
# weak so discarded problems release their bottoms; the version stamp in
# the key invalidates on any KB mutation.  Saturation is deterministic in
# (example, KB, modes, bias, engine budget) — the engine's memo/indexing
# state changes only op counts, never answers — so a cached bottom is
# exactly what a re-run would build.  Cached BottomClause objects are
# shared: callers must treat them as immutable (they already do —
# refinement only reads).
#
# A hit **replays the recorded operation cost** into the engine's counter:
# the virtual cost model (and hence simulated times, which must be a pure
# function of the run's inputs) is unchanged — the cache saves wall-clock
# seconds, not modeled operations.
_BOTTOM_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def build_bottom_cached(
    example: Term,
    engine: Engine,
    modes: ModeSet,
    config: ILPConfig,
    max_combos_per_mode: int = 2000,
) -> BottomClause:
    """Memoized :func:`build_bottom`.

    Repeated saturations of the same seed — retried seeds across worker
    epochs, cross-validation folds sharing one KB, repeated experiment
    runs — return the cached bottom clause without consuming engine
    operations.  Failed saturations (:class:`SaturationError`) are cached
    too, since retrying them is just as expensive.
    """
    kb = engine.kb
    # ``setdefault`` at both levels: threads sharing a KB (concurrent jobs
    # on one cached dataset) all keep the map that was installed first.
    per_kb = _BOTTOM_CACHE.get(kb)
    if per_kb is None:
        per_kb = _BOTTOM_CACHE.setdefault(kb, weakref.WeakKeyDictionary())
    per_modes = per_kb.get(modes)
    if per_modes is None:
        per_modes = per_kb.setdefault(modes, {})
    budget = engine.budget
    key = (
        kb.version,
        example,
        config.var_depth,
        config.recall,
        config.max_bottom_literals,
        budget.max_depth,
        budget.max_ops,
        max_combos_per_mode,
    )
    hit = per_modes.get(key)
    if hit is not None:
        obj, ops_spent = hit
        engine.total_ops += ops_spent
        if isinstance(obj, SaturationError):
            raise obj
        return obj
    ops0 = engine.total_ops
    try:
        bottom = build_bottom(example, engine, modes, config, max_combos_per_mode)
    except SaturationError as exc:
        per_modes[key] = (exc, engine.total_ops - ops0)
        raise
    per_modes[key] = (bottom, engine.total_ops - ops0)
    return bottom


def _saturate(
    example: Term,
    engine: Engine,
    modes: ModeSet,
    config: ILPConfig,
    head_mode: ModeDecl,
    namer: "_VarNamer",
    max_combos_per_mode: int,
) -> BottomClause:

    # (constant value, type) -> variable; shared across the whole clause.
    var_for: dict[tuple[object, str], Var] = {}
    # variable -> ground constant it stands for (for engine queries).
    ground_of: dict[Var, Const] = {}
    # type -> ordered list of in-scope variables of that type.
    by_type: dict[str, list[Var]] = {}

    def lift(const: Const, ty: str) -> Var:
        key = (const.value, ty)
        v = var_for.get(key)
        if v is None:
            v = namer.next()
            var_for[key] = v
            ground_of[v] = const
            by_type.setdefault(ty, []).append(v)
        return v

    # --- head -----------------------------------------------------------------
    head_args: list[Term] = []
    for arg, spec in zip(example.args, head_mode.args):
        if not isinstance(arg, Const):
            raise SaturationError(f"example arguments must be constants: {example}")
        if spec.kind == "#":
            head_args.append(arg)
        else:  # '+' and '-' head args both enter the body's scope
            head_args.append(lift(arg, spec.type))
    head = Struct(example.functor, tuple(head_args))
    head_vars = frozenset(v for v in head_args if isinstance(v, Var))

    # --- body layers ------------------------------------------------------------
    body: list[BottomLiteral] = []
    seen_literals: set[Term] = set()
    # Terms available for '+' slots: discovered strictly before this layer.
    available: dict[str, list[Var]] = {ty: list(vs) for ty, vs in by_type.items()}

    for _layer in range(config.var_depth):
        if len(body) >= config.max_bottom_literals:
            break
        new_this_layer: dict[str, list[Var]] = {}
        for mode in modes.body_modes:
            recall = mode.recall if mode.recall is not None else config.recall
            in_positions = mode.input_positions()
            pools = [available.get(mode.args[i].type, []) for i in in_positions]
            if any(not p for p in pools):
                continue
            combos = itertools.islice(itertools.product(*pools), max_combos_per_mode)
            for combo in combos:
                if len(body) >= config.max_bottom_literals:
                    break
                # Build the ground query: inputs grounded, rest free.
                qargs: list[Term] = []
                free_slots: list[int] = []
                it = iter(combo)
                for i, spec in enumerate(mode.args):
                    if spec.kind == "+":
                        qargs.append(ground_of[next(it)])
                    else:
                        qargs.append(fresh_var("_Q"))
                        free_slots.append(i)
                query = Struct(mode.predicate, tuple(qargs))
                for answer in engine.solve(query, limit=recall):
                    assert isinstance(answer, Struct)
                    largs: list[Term] = []
                    in_vars: set[Var] = set()
                    out_vars: set[Var] = set()
                    ok = True
                    it2 = iter(combo)
                    for i, spec in enumerate(mode.args):
                        a = answer.args[i]
                        if spec.kind == "+":
                            v = next(it2)
                            in_vars.add(v)
                            largs.append(v)
                        elif spec.kind == "#":
                            if not isinstance(a, Const):
                                ok = False
                                break
                            largs.append(a)
                        else:  # '-'
                            if not isinstance(a, Const):
                                ok = False
                                break
                            key = (a.value, spec.type)
                            if key in var_for:
                                v = var_for[key]
                            else:
                                v = namer.next()
                                var_for[key] = v
                                ground_of[v] = a
                                new_this_layer.setdefault(spec.type, []).append(v)
                            out_vars.add(v)
                            largs.append(v)
                    if not ok:
                        continue
                    lit = Struct(mode.predicate, tuple(largs))
                    if lit == head or lit in seen_literals:
                        continue
                    seen_literals.add(lit)
                    body.append(
                        BottomLiteral(lit, frozenset(in_vars), frozenset(out_vars))
                    )
                    if len(body) >= config.max_bottom_literals:
                        break
        # Promote this layer's new outputs into scope for the next layer.
        for ty, vs in new_this_layer.items():
            available.setdefault(ty, []).extend(vs)

    return BottomClause(seed=example, head=head, literals=body, head_vars=head_vars)
