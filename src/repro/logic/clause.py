"""Horn clauses and theories.

A :class:`Clause` is a definite Horn clause ``head :- body``.  ILP rules,
background-knowledge rules, and bottom clauses are all ``Clause`` values.
A :class:`Theory` is an ordered set of clauses (order matters for
first-match prediction semantics, as in Prolog-based ILP systems).

The variant key
---------------
:meth:`Clause.variant_key` is a clause's one canonical signature:
**renaming-invariant and order-preserving**.  Variables are renumbered by
first occurrence with body literals in their given order.  Equal keys
guarantee the clauses are *alphabetic variants with identical literal
order*, which makes them operationally interchangeable: the engine's
resource-bounded evaluation is charge-for-charge identical under variable
renaming (names affect nothing), so covered **and** budget-exhausted
bitsets coincide exactly.  The evaluation caches and the master's rule
bags merge on it — O(1) variant dedup that provably cannot change any
learned theory.  Body order is part of the key on purpose: under a binding
per-query op budget, differently ordered bodies can exhaust differently.
The key is sound in one direction only: unequal keys make no claim.

**Lineage is a key prefix.**  Numbering by first occurrence makes the key
of ``head :- b1, ..., bn-1`` a prefix of the key of ``head :- b1, ...,
bn``; :meth:`Clause.parent_key_length` says where it ends, so a rule's
lattice parent (refinement appends one literal) is found by slicing its
key, with no parent clause built and no key rendered.  The length is
recorded when the key is rendered, never found by searching the key for a
separator, because a constant's rendering may contain one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.logic.terms import (
    Const,
    Struct,
    Term,
    Var,
    is_ground,
    variables_of,
)
from repro.logic.unify import rename_apart

__all__ = ["Clause", "Theory", "head_indicator"]


def _as_atom(t: Term) -> Term:
    if isinstance(t, Var):
        raise TypeError("a clause literal cannot be a variable")
    return t


class Clause:
    """A definite Horn clause ``head :- b1, ..., bn`` (facts have n = 0)."""

    __slots__ = ("head", "body", "_hash", "_vk", "_num", "_plen", "_up")

    def __init__(self, head: Term, body: Iterable[Term] = ()):
        self.head = _as_atom(head)
        self.body = tuple(_as_atom(b) for b in body)
        self._hash = hash((self.head, self.body))
        self._vk: Optional[str] = None
        # Var -> index of the variant key's renumbering, and the length of
        # the key's parent prefix (both set before ``_vk``).
        self._num: Optional[dict] = None
        self._plen: Optional[int] = None
        # The clause ``with_extra_literal`` refined this one from, until
        # this one's variant key is computed from it.
        self._up: Optional[Clause] = None

    # -- basic protocol --------------------------------------------------------
    def __reduce__(self):
        # Rebuild through the constructor: terms re-intern on unpickle and
        # the cached key is not shipped (it is derivable, and including it
        # would bloat a run's pickled final state).
        return (Clause, (self.head, self.body))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Clause)
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clause({self})"

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body}."

    def __len__(self) -> int:
        """Number of literals (head + body), the paper's clause length."""
        return 1 + len(self.body)

    # -- accessors --------------------------------------------------------------
    @property
    def indicator(self) -> tuple[str, int]:
        return head_indicator(self.head)

    @property
    def is_fact(self) -> bool:
        return not self.body and is_ground(self.head)

    def literals(self) -> Iterator[Term]:
        yield self.head
        yield from self.body

    def variables(self) -> list[Var]:
        """Distinct variables in order of first occurrence."""
        seen: dict[Var, None] = {}
        for lit in self.literals():
            for v in variables_of(lit):
                seen.setdefault(v)
        return list(seen)

    # -- transforms --------------------------------------------------------------
    def rename_apart(self, prefix: str = "_R") -> "Clause":
        """Fresh-variable variant (standardising apart before resolution)."""
        mapping: dict = {}
        head = rename_apart(self.head, mapping, prefix)
        body = tuple(rename_apart(b, mapping, prefix) for b in self.body)
        return Clause(head, body)

    def with_extra_literal(self, lit: Term) -> "Clause":
        """Refinement step: append one body literal.

        The child remembers ``self``, so its variant key extends this
        clause's key by one literal instead of re-rendering the body (and
        the body already checked here is not checked again).
        """
        child = object.__new__(Clause)
        child.head = head = self.head
        child.body = body = self.body + (_as_atom(lit),)
        child._hash = hash((head, body))
        child._vk = child._num = child._plen = None
        child._up = self
        return child

    # -- canonical signatures ----------------------------------------------------
    def variant_key(self) -> str:
        """Renaming-invariant, order-preserving signature (module docstring).

        Equal keys ⇒ alphabetic variants with identical literal order ⇒
        bit-identical resource-bounded evaluation.  Computed once per
        clause, on first use, and cached; literal-level renderings are
        shared process-wide (refinement reuses the same bottom-literal
        term objects across thousands of search nodes).  A clause made by
        :meth:`with_extra_literal` appends its last literal, rendered
        under the parent's numbering, to the parent's key — the string a
        from-scratch rendering produces, at the cost of one literal.
        """
        vk = self._vk
        if vk is None:
            # Walk up to the nearest clause with a key (or without a
            # parent), then extend back down one literal per generation.
            # ``_num`` and ``_plen`` are stored before ``_vk``: a thread
            # that sees a key also sees its numbering and parent prefix.
            pending = []
            c = self
            while c._vk is None:
                up = c._up
                if up is None:
                    break
                pending.append(c)
                c = up
            if c._vk is None:
                key, c._num, c._plen = _clause_signature(c.head, c.body)
                c._vk = key
            for child in reversed(pending):
                key, child._num, child._plen = _extend_key(c._vk, c._num, c.body, child.body[-1])
                child._vk = key
                child._up = None
                c = child
            vk = self._vk
        return vk

    def parent_key_length(self) -> int:
        """Length of the variant key's parent prefix: ``variant_key()[:n]``
        is the key of this clause minus its last body literal (0 for a
        clause without a body, which has no parent)."""
        if self._vk is None:
            self.variant_key()
        return self._plen


# literal -> (parts, vars): ``parts`` are the constant string pieces around
# each variable occurrence, ``vars`` the variables in occurrence order
# (with repeats).  Keyed by the literal term itself —
# search nodes share their bottom clause's literal objects, so each
# distinct literal is rendered once per process.
_lit_cache: dict = {}


def _literal_entry(lit: Term) -> tuple:
    entry = _lit_cache.get(lit)
    if entry is not None:
        return entry
    tokens: list = []
    vars_: list[Var] = []

    def go(t: Term) -> None:
        if type(t) is Var:
            tokens.append(None)
            vars_.append(t)
        elif type(t) is Const:
            tokens.append(repr(t.value))
        else:
            tokens.append(t.functor)
            tokens.append("(")
            for i, a in enumerate(t.args):
                if i:
                    tokens.append(",")
                go(a)
            tokens.append(")")

    go(lit)
    parts: list[str] = []
    buf: list[str] = []
    for tok in tokens:
        if tok is None:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(tok)
    parts.append("".join(buf))
    entry = (tuple(parts), tuple(vars_))
    if len(_lit_cache) > 65536:
        _lit_cache.clear()
    _lit_cache[lit] = entry
    return entry


def _render(parts: tuple, vs: tuple, num: dict) -> str:
    # Variable indices render as "_<n>": constants render through ``repr``
    # (strings quoted), so the bare underscore prefix can never collide
    # with a constant's rendering.
    out = [parts[0]]
    for j, v in enumerate(vs):
        out.append("_" + str(num[v]))
        out.append(parts[j + 1])
    return "".join(out)


def _clause_signature(head: Term, body: tuple) -> tuple[str, dict, int]:
    """The variant key, the renumbering (Var -> index) it rendered under,
    and the length of its parent prefix (where the last literal's
    rendering starts, minus its separator)."""
    hparts, hvars = _literal_entry(head)
    num: dict[Var, int] = {}
    for v in hvars:
        if v not in num:
            num[v] = len(num)
    rendered = []
    for b in body:
        parts, vs = _literal_entry(b)
        for v in vs:
            if v not in num:
                num[v] = len(num)
        rendered.append(_render(parts, vs, num))
    key = _render(hparts, hvars, num) + ":-" + ";".join(rendered)
    if not body:
        return key, num, 0
    return key, num, len(key) - len(rendered[-1]) - (1 if len(body) > 1 else 0)


def _extend_key(key: str, num: dict, body: tuple, lit: Term) -> tuple[str, dict, int]:
    """The variant key of a clause with key ``key``, renumbering ``num``
    and body ``body``, after appending ``lit``: new variables take the
    next indices by first occurrence, as a from-scratch rendering numbers
    them.  ``num`` is shared with the parent, so it is copied, never
    changed, when ``lit`` brings new variables.  The parent prefix is
    ``key`` itself."""
    parts, vs = _literal_entry(lit)
    own = False
    for v in vs:
        if v not in num:
            if not own:
                num = dict(num)
                own = True
            num[v] = len(num)
    return key + (";" if body else "") + _render(parts, vs, num), num, len(key)


def head_indicator(head: Term) -> tuple[str, int]:
    if isinstance(head, Struct):
        return head.indicator
    if isinstance(head, Const) and isinstance(head.value, str):
        return (head.value, 0)
    raise TypeError(f"invalid clause head: {head!r}")


class Theory:
    """An ordered collection of learned clauses."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: Iterable[Clause] = ()):
        self.clauses: list[Clause] = list(clauses)

    def add(self, clause: Clause) -> None:
        self.clauses.append(clause)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __getitem__(self, i: int) -> Clause:
        return self.clauses[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Theory) and other.clauses == self.clauses

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Theory({len(self.clauses)} clauses)"
