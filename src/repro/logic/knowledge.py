"""Knowledge base: indexed ground facts plus rules.

The background knowledge ``B`` of an ILP problem is a
:class:`KnowledgeBase`.  Facts are stored per predicate indicator with
**argument indexes**: any argument position that a goal binds to a ground
term is an access path.  A single bound position uses its per-position
index; several bound positions use a composite index over exactly that
signature — at least as selective as any single-position bucket, so only
facts matching *all* bound arguments are ever offered for unification.
Position 0 is indexed eagerly (the dominant access path during coverage
testing: ``bond(m17, A1, A2)`` with the molecule id bound); every other
index is built lazily the first time a goal needs it, so e.g.
``bond(A, m17_a3, B)`` stops scanning the whole store after its first
occurrence.  A lazy index is built in one pass over the facts, its keys
taken by ``operator.itemgetter`` (for the full signature, the fact's own
argument tuple); ``add`` files a new fact under the same key, so an index
built late equals one maintained from the start.  This is the only
retrieval scheme: the engine's machine (:meth:`FactStore.candidates_bound`)
and coverage plans (:meth:`FactStore.access_path`) read the same buckets.
Rules are stored per indicator in insertion order, Prolog-style.

The base also carries a monotonic ``version`` counter, bumped on every
mutation — consumers that cache derived results (the engine's ground-goal
memo table) use it for invalidation.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional

from repro.logic.clause import Clause, head_indicator
from repro.logic.parser import parse_program
from repro.logic.terms import Struct, Term, is_ground

__all__ = ["FactStore", "KnowledgeBase"]

_EMPTY: list = []
_ARGS = attrgetter("args")
_WHOLE = itemgetter(slice(None))  # args[:] is args itself for a tuple


class FactStore:
    """Ground facts of a single predicate, with multi-argument indexing."""

    __slots__ = ("indicator", "facts", "fact_set", "_indexes", "_composite", "_all_args")

    def __init__(self, indicator: tuple[str, int]):
        self.indicator = indicator
        self.facts: list[Term] = []
        self.fact_set: set[Term] = set()
        # arg position -> {ground arg term -> facts with that arg, in
        # insertion order}.  Position 0 is built eagerly, others on demand.
        self._indexes: dict[int, dict[Term, list[Term]]] = {}
        # bound-position signature (pos, pos, ...) -> {arg tuple -> facts}:
        # composite indexes for goals binding several arguments at once,
        # e.g. bond(a3, C, 2) with (0, 2) bound.
        self._composite: dict[tuple[int, ...], dict[tuple, list[Term]]] = {}
        self._all_args = tuple(range(indicator[1]))
        if indicator[1] >= 1:
            self._indexes[0] = {}

    def add(self, fact: Term) -> bool:
        """Add a ground fact; returns False if it was already present."""
        if fact in self.fact_set:
            return False
        self.fact_set.add(fact)
        self.facts.append(fact)
        if isinstance(fact, Struct):
            args = fact.args
            for pos, index in self._indexes.items():
                index.setdefault(args[pos], []).append(fact)
            for sig, index in self._composite.items():
                index.setdefault(self._key_of(sig)(args), []).append(fact)
        return True

    def _key_of(self, sig: tuple[int, ...]):
        """A composite index's key for a fact's argument tuple: that very
        tuple for the full signature (no copy), else the bound ones."""
        return _WHOLE if sig == self._all_args else itemgetter(*sig)

    def _grouped(self, key_of) -> dict:
        """``{key_of(fact.args): [facts in insertion order]}``, in one pass."""
        index: dict = {}
        for key, fact in zip(map(key_of, map(_ARGS, self.facts)), self.facts):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [fact]
            else:
                bucket.append(fact)
        return index

    def _index_on(self, pos: int) -> dict[Term, list[Term]]:
        """The index for argument position ``pos``, built on first use."""
        index = self._indexes.get(pos)
        if index is None:
            index = self._indexes[pos] = self._grouped(itemgetter(pos))
        return index

    def _composite_on(self, sig: tuple[int, ...]) -> dict[tuple, list[Term]]:
        index = self._composite.get(sig)
        if index is None:
            index = self._composite[sig] = self._grouped(self._key_of(sig))
        return index

    def has_args(self, args: tuple) -> bool:
        """Is ``functor(*args)`` a stored fact?  Membership through the
        full-signature composite index, so no term is built (or interned)
        for the question."""
        return args in self._composite_on(self._all_args)

    def candidates_bound(self, walked: list, bound: list) -> list[Term]:
        """Facts possibly unifying with a goal the engine already walked.

        ``walked`` holds the goal's effective argument values and ``bound``
        the positions holding ground terms — the engine computes both in
        its per-goal dispatch, so no argument is traversed twice.  A single
        bound position uses its per-position index; several bound
        positions use a composite index over exactly that signature, so
        only facts matching *all* bound arguments are ever offered for
        unification.  Bucket order is insertion order, so enumeration
        order matches a full scan with non-matching facts skipped.
        """
        n = len(bound)
        if n == 0:
            return self.facts
        if n == 1:
            p = bound[0]
            return self._index_on(p).get(walked[p], _EMPTY)
        # Fully bound goals take the composite path too (at most one
        # candidate): building the term to test ``fact_set`` would intern
        # every goal that is not a fact.
        sig = tuple(bound)
        key = tuple(walked[p] for p in bound)
        return self._composite_on(sig).get(key, _EMPTY)

    def access_path(self, bound: tuple[int, ...]) -> Optional[dict]:
        """The live index :meth:`candidates_bound` consults for a goal whose
        ground positions are ``bound`` (ascending): keyed by the argument
        itself for one position, by the argument tuple for several; None
        for no position (the access path is ``facts``).  ``add`` updates
        the dict in place, so holding on to it is safe."""
        if not bound:
            return None
        if len(bound) == 1:
            return self._index_on(bound[0])
        return self._composite_on(bound)

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.facts)


class KnowledgeBase:
    """Background knowledge: ground facts + definite rules.

    >>> kb = KnowledgeBase()
    >>> kb.add_program("parent(ann, bob). parent(bob, cat).")
    >>> kb.add_program("grand(X, Z) :- parent(X, Y), parent(Y, Z).")
    >>> len(kb.facts_for(("parent", 2)))
    2
    """

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._facts: dict[tuple[str, int], FactStore] = {}
        self._rules: dict[tuple[str, int], list[Clause]] = defaultdict(list)
        self.n_facts = 0
        #: monotonic mutation counter (memo-table invalidation stamp).
        self.version = 0
        for c in clauses:
            self.add_clause(c)

    # -- mutation ----------------------------------------------------------------
    def add_clause(self, clause: Clause) -> None:
        if clause.is_fact:
            self.add_fact(clause.head)
        else:
            self.add_rule(clause)

    def add_fact(self, fact: Term) -> bool:
        if not is_ground(fact):
            raise ValueError(f"facts must be ground: {fact}")
        ind = head_indicator(fact)
        store = self._facts.get(ind)
        if store is None:
            store = self._facts[ind] = FactStore(ind)
        added = store.add(fact)
        if added:
            self.n_facts += 1
            self.version += 1
        return added

    def add_facts(self, functor: str, rows: Iterable[tuple]) -> int:
        """Add ``functor(*row)`` for each row of ready argument terms;
        returns how many were new.

        The same facts, in the same order, with the same interning,
        ``n_facts`` and ``version`` as one :meth:`add_fact` per row —
        without coercing arguments (:func:`~repro.logic.terms.atom`) or
        looking up the store again for every row.  A non-ground or empty
        row raises ``ValueError``; the rows before it stay added.
        """
        arity = 0
        store = None
        added = 0
        try:
            for args in rows:
                if not args:
                    raise ValueError(f"a fact row needs at least one argument: {functor}")
                fact = Struct(functor, args)
                if not fact.ground:
                    raise ValueError(f"facts must be ground: {fact}")
                if len(args) != arity:
                    arity = len(args)
                    store = self.facts_for((functor, arity))
                if store.add(fact):
                    added += 1
        finally:
            self.n_facts += added
            self.version += added
        return added

    def add_rule(self, clause: Clause) -> None:
        self._rules[clause.indicator].append(clause)
        self.version += 1

    def add_program(self, src: str) -> None:
        """Parse and add a Prolog-ish program string."""
        for clause in parse_program(src):
            self.add_clause(clause)

    # -- queries -----------------------------------------------------------------
    def facts_for(self, indicator: tuple[str, int]) -> FactStore:
        store = self._facts.get(indicator)
        if store is None:
            store = self._facts[indicator] = FactStore(indicator)
        return store

    def rules_for(self, indicator: tuple[str, int]) -> list[Clause]:
        return self._rules.get(indicator, [])

    def predicates(self) -> list[tuple[str, int]]:
        out = set(self._facts) | set(self._rules)
        return sorted(out)
