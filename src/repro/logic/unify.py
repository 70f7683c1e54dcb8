"""Unification and substitutions.

A substitution is a plain ``dict[Var, Term]``.  :func:`walk` resolves
binding chains; :func:`unify` is the standard sound unification (with an
optional occurs check, off by default as in most Prologs, since ILP
saturation/refinement never builds cyclic terms).

Two flavours are provided:

* functional: :func:`unify` / :func:`match` return a *new* dict, convenient
  for library users and tests;
* trail-based: :func:`unify_trail` mutates a shared dict and records
  bindings on a trail list so the engine can backtrack in O(bindings)
  (see :mod:`repro.logic.engine`).
"""

from __future__ import annotations

from typing import MutableMapping, Optional

from repro.logic.terms import Const, Struct, Term, Var, fresh_var

__all__ = [
    "Subst",
    "walk",
    "resolve",
    "unify",
    "unify_trail",
    "undo_trail",
    "match",
    "rename_apart",
    "occurs_in",
]

Subst = MutableMapping[Var, Term]


def walk(term: Term, subst: Subst) -> Term:
    """Follow variable bindings until a non-var or unbound var is reached.

    A self-binding ``X -> X`` (which one-way :func:`match` may record as an
    identity mapping) is treated as terminal rather than chased forever.
    """
    while isinstance(term, Var):
        nxt = subst.get(term)
        if nxt is None or nxt == term:
            return term
        term = nxt
    return term


def resolve(term: Term, subst: Subst) -> Term:
    """Apply ``subst`` deeply to ``term`` (a.k.a. ``instantiate``).

    Identity-preserving: when nothing in ``term`` is affected by the
    substitution (the common case for ground goals on the engine's hot
    path), the original object is returned instead of an equal copy,
    skipping re-allocation and re-hashing.
    """
    term = walk(term, subst)
    if isinstance(term, Struct):
        if term.ground:
            # Ground terms cannot be affected by any substitution.
            return term
        args = term.args
        new_args = None
        for i, a in enumerate(args):
            r = resolve(a, subst)
            if r is not a:
                if new_args is None:
                    new_args = list(args)
                new_args[i] = r
        if new_args is None:
            return term
        return Struct(term.functor, tuple(new_args))
    return term


def occurs_in(var: Var, term: Term, subst: Subst) -> bool:
    """True iff ``var`` occurs in ``term`` under ``subst``."""
    stack = [term]
    while stack:
        t = walk(stack.pop(), subst)
        if isinstance(t, Var):
            if t == var:
                return True
        elif isinstance(t, Struct) and not t.ground:
            stack.extend(t.args)
    return False


def unify(t1: Term, t2: Term, subst: Optional[Subst] = None, occurs_check: bool = False) -> Optional[dict]:
    """Unify two terms; return an extended copy of ``subst`` or ``None``.

    >>> from repro.logic.terms import atom
    >>> s = unify(atom("p", "X", "a"), atom("p", "b", "Y"))
    >>> sorted((str(k), str(v)) for k, v in s.items())
    [('X', 'b'), ('Y', 'a')]
    """
    out: dict = dict(subst) if subst else {}
    trail: list = []
    if unify_trail(t1, t2, out, trail, occurs_check=occurs_check):
        return out
    return None


def unify_trail(t1: Term, t2: Term, subst: Subst, trail: list, occurs_check: bool = False) -> bool:
    """Destructive unification recording new bindings on ``trail``.

    On failure the caller must invoke :func:`undo_trail` with the trail
    length captured before the call (the engine does this on backtracking).
    This function leaves ``subst`` consistent either way — it only *adds*
    bindings.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(a, subst)
        b = walk(b, subst)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and b == a:
                continue
            if occurs_check and occurs_in(a, b, subst):
                return False
            subst[a] = b
            trail.append(a)
        elif isinstance(b, Var):
            if occurs_check and occurs_in(b, a, subst):
                return False
            subst[b] = a
            trail.append(b)
        elif isinstance(a, Const) and isinstance(b, Const):
            if a != b:
                return False
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.interned and b.interned:
                # Both canonical ground terms and not identical (the
                # ``a is b`` fast path above) — they cannot unify.
                return False
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        else:
            return False
    return True


def undo_trail(subst: Subst, trail: list, mark: int) -> None:
    """Remove bindings recorded after ``mark`` (backtracking)."""
    while len(trail) > mark:
        del subst[trail.pop()]


def match(pattern: Term, ground: Term, subst: Optional[Subst] = None) -> Optional[dict]:
    """One-way matching: bind variables of ``pattern`` only.

    Used for matching a rule head to an example and for θ-subsumption
    (the tests' oracle), where the right-hand side must be treated as
    fixed (its variables are constants for matching purposes).  Bindings map pattern variables directly to target terms:
    a variable already bound must re-match an *equal* target term — its
    binding is never chased as a substitution chain, which would let a
    pattern variable bound to a target variable be silently rebound (the
    target side is fixed, so that would be unsound; θ-subsumption compares
    clauses that may share variable names).
    """
    out: dict = dict(subst) if subst else {}
    stack = [(pattern, ground)]
    while stack:
        p, g = stack.pop()
        if isinstance(p, Var):
            bound = out.get(p)
            if bound is None:
                out[p] = g
            elif not (bound is g or bound == g):
                return None
            continue
        if isinstance(p, Const):
            if p != g:
                return None
            continue
        if p.ground:
            # Ground pattern subterm: pure equality, no bindings to record
            # (Struct.__eq__ already short-circuits canonical instances).
            if p is g or p == g:
                continue
            return None
        if not isinstance(g, Struct) or p.functor != g.functor or len(p.args) != len(g.args):
            return None
        stack.extend(zip(p.args, g.args))
    return out


def rename_apart(term: Term, mapping: Optional[dict] = None, prefix: str = "_R") -> Term:
    """Rename all variables in ``term`` to fresh ones.

    ``mapping`` (old var -> new var) may be shared across several terms of
    one clause so that shared variables stay shared.
    """
    if mapping is None:
        mapping = {}

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            if t not in mapping:
                mapping[t] = fresh_var(prefix)
            return mapping[t]
        if isinstance(t, Struct) and not t.ground:
            return Struct(t.functor, tuple(go(a) for a in t.args))
        return t

    return go(term)
