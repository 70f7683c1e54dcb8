"""First-order logic terms.

Three immutable term kinds, as in a standard Prolog core:

* :class:`Var` — a logic variable (``X``, ``_G12``).
* :class:`Const` — an atomic constant: a symbol (``ethyl``), an ``int`` or a
  ``float``.
* :class:`Struct` — a compound term ``f(t1, ..., tn)``.  Predicates/atoms are
  represented as structs too (an atom is simply a term in predicate
  position).

Terms are immutable and hashable, so they can be used as dict keys
(substitutions, indices) and set members (coverage caches).

Hash-consing
------------
Constants and *ground* compound terms are **interned**: constructing the
same value twice returns the same object, so equality on the coverage
kernel's hot paths (fact unification, memo-table probes, ``fact_set``
membership) degenerates to a pointer comparison.  Four invariants follow:

* **a ``Const`` is canonical by construction**: there is exactly one live
  object per ``(type, value)``, and pickling, copying and wire decoding all
  go back through the constructor (``__reduce__``).  ``Const`` therefore
  has no ``__eq__`` or ``__hash__`` of its own: it inherits ``object``'s,
  which compare and hash by identity in C.  Its table holds weak
  references and has no cap; a constant that nothing references drops
  out, so the table is bounded by the live terms;
* every *ground* ``Struct`` created below ``_STRUCT_CAP`` is interned, so
  two distinct interned structs are never equal — ``Struct.__eq__``
  short-circuits to ``False`` when both sides carry the ``interned`` flag.
  The struct table is strong (it also keeps the constants of every
  interned struct alive); past its cap, new ground structs are built
  uninterned and equality takes the structural fallback;
* a term is published only once it is fully built, with ``setdefault``,
  so threads racing to build the same value all get the one canonical
  object and never see a half-initialised one;
* **interned terms must never be mutated** — they are shared across every
  clause, index and cache in the process.  (All terms are immutable by
  construction; the invariant matters if you are tempted to poke at
  ``args`` through the C API or ``object.__setattr__``.)

Variable-containing structs are *not* interned (renaming-apart creates a
stream of short-lived variants that would only bloat the table); they still
precompute their hash and a ``ground`` flag, making :func:`is_ground` O(1)
for every term.
"""

from __future__ import annotations

import itertools
import sys
from _weakref import _remove_dead_weakref
from typing import Iterable, Iterator, Union
from weakref import KeyedRef

__all__ = [
    "Term",
    "Var",
    "Const",
    "Struct",
    "atom",
    "mk_term",
    "fresh_var",
    "variables_of",
    "term_size",
    "term_depth",
    "is_ground",
]

_fresh_counter = itertools.count()

#: ``(type, value)`` → weak reference to the canonical ``Const``.
_const_table: dict = {}
_struct_table: dict = {}

# Growth bound for ground structs: interned structs live for the process
# lifetime (clearing would be unsound — the fast equality paths assume at
# most one canonical instance per value).  Past the cap, new distinct
# structs are simply no longer interned; ``Struct.__eq__`` keeps a
# structural fallback, so only the identity fast path degrades.  The cap
# is far above any bundled workload (paper-scale carcinogenesis stays in
# the tens of thousands of ground terms).
_STRUCT_CAP = 1 << 20


def _drop_const(ref, _table=_const_table, _remove=_remove_dead_weakref):
    # Weak-reference callback of a dead constant.  It binds what it uses,
    # so it still works while interpreter teardown clears module globals;
    # the C helper removes the entry only if it is still this dead
    # reference (another thread may have republished the key meanwhile).
    _remove(_table, ref.key)


class Var:
    """A logic variable, identified by name.

    Two ``Var`` objects with the same name are the same variable.  Fresh
    (globally unique) variables are produced by :func:`fresh_var`.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("V", name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(other) is Var and other.name == self.name

    def __hash__(self) -> int:
        return self._hash


class Const:
    """An atomic constant: symbol, integer or float.

    Canonical: the constructor returns the one live instance for a given
    ``(type, value)`` pair, and unpickling re-interns, so equal constants
    are identical within a process and equality and hashing are
    ``object``'s identity slots.  ``1``, ``1.0`` and ``True`` are distinct
    constants (the table key carries the concrete type).
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: Union[str, int, float]):
        key = (value.__class__, value)
        ref = _const_table.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.value = value
        ref = KeyedRef(self, _drop_const, key)
        while True:
            published = _const_table.setdefault(key, ref)
            if published is ref:
                return self
            other = published()
            if other is not None:
                return other
            # A dead entry whose callback has not run yet: clear it and
            # publish again (the protocol of ``WeakValueDictionary``).
            _remove_dead_weakref(_const_table, key)

    def __init__(self, value: Union[str, int, float]):
        # All initialisation happens in __new__ (it may return a cached
        # instance that must not be re-initialised).
        pass

    def __reduce__(self):
        return (Const, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Struct:
    """A compound term ``functor(arg1, ..., argN)`` (N >= 1).

    Zero-arity atoms are represented as :class:`Const`; the parser and
    :func:`atom` enforce this normal form.

    ``ground`` (no variables anywhere) is computed at construction, making
    :func:`is_ground` O(1).  Ground structs are interned (see module
    docstring); ``interned`` marks the canonical instances, letting
    equality short-circuit to identity in both directions.
    """

    __slots__ = ("functor", "args", "indicator", "ground", "interned", "_hash")

    def __new__(cls, functor: str, args: tuple):
        ground = True
        for a in args:
            ta = type(a)
            if ta is Const:
                continue
            if ta is Struct and a.ground:
                continue
            ground = False
            break
        interned = False
        if ground:
            self = _struct_table.get((functor, args))
            if self is not None:
                return self
            if len(_struct_table) < _STRUCT_CAP:
                functor = sys.intern(functor)
                interned = True
        self = object.__new__(cls)
        self.functor = functor
        self.args = args
        self.ground = ground
        self.interned = interned
        #: the predicate indicator ``(name, arity)`` — precomputed, it is
        #: read on every engine goal dispatch.
        self.indicator = (functor, len(args))
        self._hash = hash(("S", functor, args))
        if interned:
            # Publish only the finished term: a racing thread either finds
            # nothing (and publishes its own) or gets this one whole.
            return _struct_table.setdefault((functor, args), self)
        return self

    def __init__(self, functor: str, args: tuple):
        # All initialisation happens in __new__ (it may return a cached
        # instance that must not be re-initialised).
        pass

    def __reduce__(self):
        return (Struct, (self.functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Struct({self.functor!r}, {self.args!r})"

    def __str__(self) -> str:
        return f"{self.functor}({', '.join(map(str, self.args))})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Struct:
            return False
        if self.interned and other.interned:
            # Both canonical: distinct objects are guaranteed unequal.
            return False
        return (
            other._hash == self._hash
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash


Term = Union[Var, Const, Struct]


def mk_term(value: object) -> Term:
    """Coerce a Python value into a term.

    Strings starting with an uppercase letter or ``_`` become variables,
    other strings become symbol constants; ints/floats become numeric
    constants; terms pass through unchanged.
    """
    if isinstance(value, (Var, Const, Struct)):
        return value
    if isinstance(value, bool):
        return Const("true" if value else "false")
    if isinstance(value, (int, float)):
        return Const(value)
    if isinstance(value, str):
        if value and (value[0].isupper() or value[0] == "_"):
            return Var(value)
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to a term")


def atom(functor: str, *args: object) -> Term:
    """Build an atom/compound term, coercing Python args via :func:`mk_term`.

    >>> str(atom("bond", "m1", 3, "X"))
    'bond(m1, 3, X)'
    """
    if not args:
        return Const(functor)
    return Struct(functor, tuple(mk_term(a) for a in args))


def fresh_var(prefix: str = "_G") -> Var:
    """Return a globally fresh variable."""
    return Var(f"{prefix}{next(_fresh_counter)}")


def variables_of(term: Term) -> Iterator[Var]:
    """Iterate variables in ``term``, left-to-right, with repeats."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t
        elif isinstance(t, Struct) and not t.ground:
            stack.extend(reversed(t.args))


def term_size(term: Term) -> int:
    """Number of symbol occurrences in ``term`` (vars and consts count 1)."""
    if isinstance(term, Struct):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


def term_depth(term: Term) -> int:
    """Nesting depth; constants and variables have depth 0."""
    if isinstance(term, Struct):
        return 1 + max((term_depth(a) for a in term.args), default=0)
    return 0


def is_ground(term: Term) -> bool:
    """True iff ``term`` contains no variables.

    O(1): groundness is precomputed at construction for every term kind.
    """
    t = type(term)
    if t is Const:
        return True
    if t is Struct:
        return term.ground
    return False
