"""Resource-bounded SLD-resolution engine.

This is the theorem prover that ILP coverage testing runs on (the paper's
``evalOnExamples``).  It is a depth-bounded, operation-bounded Prolog-style
engine over a :class:`~repro.logic.knowledge.KnowledgeBase`:

* **depth bound** — limits rule expansions, guaranteeing termination on
  recursive background knowledge;
* **operation bound** — caps unification attempts per query.  A query that
  exhausts its budget *fails* (the example counts as not covered), mirroring
  the resource-bounded "h-easy" semantics of Progol/Aleph/April;
* **operation counter** — ``total_ops`` accumulates across queries and is
  the compute-cost proxy consumed by the simulated cluster's
  :class:`~repro.cluster.costmodel.CostModel`.  One op ≈ one candidate
  clause/fact unification attempt (plus one per builtin call), which tracks
  the work a WAM-based Prolog performs closely enough for relative timing.

The engine treats negation-as-failure (``\\+``/``not``) soundly for ground
sub-goals (the only use ILP coverage makes of it).

Coverage of a *flat* clause over ground facts does not come through here:
:mod:`repro.logic.cover_plan` runs it as compiled nested loops that charge
this engine op for op what the machine below would have.

The resolution machine is an explicit goal-stack/choice-point loop.
Continuations are shared cons cells, choice points are flat list frames,
and backtracking is a loop — no nested-generator resumption on every
unification.  Fact retrieval uses every argument a goal binds
(:meth:`~repro.logic.knowledge.FactStore.candidates_bound`), in insertion
order.  The machine optionally memoizes ground goals over *deterministic*
predicates (rule predicates whose dependency closure is negation-free):
success observed at remaining depth ``d`` is valid at any depth ``>= d``,
failure at depth ``d`` at any depth ``<= d``, so memo answers are exactly
what re-running the machine would compute.  The memo is invalidated
whenever the knowledge base's ``version`` stamp changes.

With the memo off, the machine finds the seed's recursive interpreter's
solutions in the same order; the interpreter's answers are kept as data
in ``tests/data/engine_witness.json``.  Multi-argument indexing and the
memo only reduce the op count; they never change the set of solutions,
but a query that only failed because it ran out of budget may now succeed
within it.  A rule expansion tightens the depth
budget of the goals after it in its conjunction; a memoized ground
subgoal consumes no depth from its continuation, i.e. the memo restores
branch-local depth accounting.  The two treatments only differ where the
depth bound binds mid-conjunction.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Sequence

from repro.logic.builtins import ArithmeticError_, eval_arith, is_builtin
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, Struct, Term, Var
from repro.logic.unify import resolve, undo_trail, unify_trail, walk

__all__ = ["Engine", "QueryBudget", "BudgetExceeded"]


class BudgetExceeded(Exception):
    """Internal signal: per-query operation budget exhausted."""


def _flatten_conj(term: Term) -> tuple[Term, ...]:
    if isinstance(term, Struct) and term.functor == "," and term.arity == 2:
        return _flatten_conj(term.args[0]) + _flatten_conj(term.args[1])
    return (term,)


# kb -> {clause: (kb.version, compiled coverage plan | None)}, filled by
# ``repro.ilp.coverage.coverage_eval``.  A plan closes over its KB's index
# dicts and takes the engine only as a call argument, so every engine over
# one KB shares its table; no plan references the KB, so a KB nobody holds
# drops its table.
_PLAN_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _plan_table(kb: KnowledgeBase) -> dict:
    """The plan table of ``kb``; ``setdefault``, so threads sharing a KB
    all keep the table that was installed first."""
    table = _PLAN_TABLES.get(kb)
    if table is None:
        table = _PLAN_TABLES.setdefault(kb, {})
    return table


class QueryBudget:
    """Per-query resource limits.

    ``max_depth`` bounds the number of *rule* expansions along any
    derivation branch (facts and builtins are free).  ``max_ops`` bounds
    total unification attempts for one query.
    """

    __slots__ = ("max_depth", "max_ops")

    def __init__(self, max_depth: int = 12, max_ops: int = 200_000):
        if max_depth < 1 or max_ops < 1:
            raise ValueError("budgets must be positive")
        self.max_depth = max_depth
        self.max_ops = max_ops

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryBudget(max_depth={self.max_depth}, max_ops={self.max_ops})"


class Engine:
    """SLD resolution over a knowledge base, with resource accounting.

    Parameters
    ----------
    kernel:
        Must be None: the one machine is the only kernel.
    memo:
        Enable the ground-goal memo table (off only as the memo's own
        reference in tests).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        budget: Optional[QueryBudget] = None,
        kernel: None = None,
        memo: bool = True,
    ):
        # Shim: bench/ still passes kernel=None; ROADMAP 1(b) deletes it.
        if kernel is not None:
            raise ValueError("the legacy coverage kernel is retired")
        self.memo_enabled = memo
        self.kb = kb
        self.budget = budget or QueryBudget()
        #: unification attempts since engine construction (monotonic).
        self.total_ops: int = 0
        #: True iff the most recent query hit its operation budget.
        self.last_exhausted: bool = False
        # goal -> [min depth success was observed at | None,
        #          max depth failure was observed at | None]
        self._memo: dict[Term, list] = {}
        # goals whose memo proof is currently running: re-dispatches of the
        # same ground goal inside it must explore normally (recursive
        # predicates), not re-enter the memo.
        self._memo_active: set = set()
        # indicator -> is the predicate's dependency closure negation-free?
        self._memoizable: dict[tuple, bool] = {}
        # indicator -> (FactStore, rules) dispatch cache; (None, None) for
        # builtins.  Cleared with the memo when the KB version moves.
        self._preds: dict[tuple, tuple] = {}
        self._kb_version = kb.version
        # the KB's coverage-plan table (shared with every engine over it).
        self._plans: dict = _plan_table(kb)
        self.memo_hits = 0
        self.memo_misses = 0

    def __getstate__(self) -> dict:
        # Compiled plans are closures, which do not pickle; the copy joins
        # its own KB's table and compiles them there on first use.
        state = self.__dict__.copy()
        del state["_plans"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plans = _plan_table(self.kb)

    # -- public query API ----------------------------------------------------
    def solve(self, goals: Term | Sequence[Term], limit: Optional[int] = None) -> Iterator[Term | tuple]:
        """Yield solutions as resolved instances of the goal (tuple).

        ``goals`` may be a single goal term or a sequence (conjunction).
        Each solution is the goal conjunction with the answer substitution
        applied.  Stops silently if the operation budget is exhausted
        (check :attr:`last_exhausted`), and yields at most ``limit``
        solutions — none, without running the query, for ``limit < 1``.
        """
        if limit is not None and limit < 1:
            self.last_exhausted = False
            return
        goal_tuple = tuple(goals) if isinstance(goals, (list, tuple)) else (goals,)
        # Flatten ','/2 conjunction terms so `parse_term("p(X), q(X)")`
        # queries work directly.
        flat: list[Term] = []
        for g in goal_tuple:
            flat.extend(_flatten_conj(g))
        goal_tuple = tuple(flat)
        subst: dict = {}
        trail: list = []
        gen = self._start_query(goal_tuple, subst, trail)
        n = 0
        try:
            for _ in gen:
                if len(goal_tuple) == 1:
                    yield resolve(goal_tuple[0], subst)
                else:
                    yield tuple(resolve(g, subst) for g in goal_tuple)
                n += 1
                if limit is not None and n >= limit:
                    return
        except BudgetExceeded:
            self.last_exhausted = True

    def prove(self, goals: Term | Sequence[Term]) -> bool:
        """True iff at least one solution exists within budget."""
        for _ in self.solve(goals, limit=1):
            return True
        return False

    def prove_body(self, goals: tuple, subst: dict) -> bool:
        """Existence of a solution for ``goals`` under initial bindings.

        The coverage hot path: the caller hands over the head-matching
        substitution instead of pre-resolving every body literal (the
        machine resolves each goal at dispatch anyway).  Takes ownership
        of ``subst``.  Same budget/exhaustion semantics as :meth:`prove`.
        """
        try:
            for _ in self._start_query(goals, subst, []):
                return True
        except BudgetExceeded:
            self.last_exhausted = True
        return False

    def _start_query(self, goals: tuple, subst: dict, trail: list):
        """Reset per-query state, refresh version-stamped caches, and
        return the resolution generator for ``goals``."""
        self.last_exhausted = False
        self._query_ops = 0
        if self._kb_version != self.kb.version:
            self._preds.clear()
            self._memo.clear()
            self._memoizable.clear()
            self._kb_version = self.kb.version
        cont = None
        for g in reversed(goals):
            cont = (g, cont)
        return self._machine(cont, self.budget.max_depth, subst, trail)

    # -- op accounting ---------------------------------------------------------
    def _charge(self, n: int = 1) -> None:
        self.total_ops += n
        self._query_ops += n
        if self._query_ops > self.budget.max_ops:
            raise BudgetExceeded

    # -- iterative machine -------------------------------------------------------
    #
    # A continuation is a cons list ``(goal, rest)`` / None; sharing tails
    # makes saving it in a choice point O(1).  A choice point is a flat
    # list frame; index 0 is the kind tag:
    #
    #   _F_PRED    [tag, trail_mark, cont_rest, depth, goal, facts, fi,
    #               rules, ri, walked_args]
    #   _F_BETWEEN [tag, trail_mark, cont_rest, depth, x, hi, next_v]
    #
    # The main loop alternates between running the current continuation
    # forward and pulling the next alternative off the top frame.  A new
    # frame is entered through the same backtracking code that resumes it
    # (its first "undo" is a no-op at its own trail mark).

    _F_PRED = 0
    _F_BETWEEN = 1

    def _machine(self, cont, depth: int, subst: dict, trail: list):
        """Iterative SLD core; yields once per solution (bindings live in
        ``subst``).

        Engine substitutions never contain self-bindings (neither
        ``unify_trail`` nor ``match`` creates them), so variable chains are
        walked with identity checks only.
        """
        frames: list[list] = []
        backtrack = False
        max_ops = self.budget.max_ops
        preds = self._preds
        subst_get = subst.get
        trail_append = trail.append
        while True:
            if backtrack:
                if not frames:
                    return
                f = frames[-1]
                mark = f[1]
                if len(trail) > mark:
                    undo_trail(subst, trail, mark)
                if f[0] == Engine._F_PRED:
                    goal, facts = f[4], f[5]
                    gargs = f[9]
                    nargs = len(gargs)
                    advanced = False
                    fi = f[6]
                    nfacts = len(facts)
                    while fi < nfacts:
                        fact = facts[fi]
                        fi += 1
                        self.total_ops += 1
                        qo = self._query_ops + 1
                        self._query_ops = qo
                        if qo > max_ops:
                            f[6] = fi
                            raise BudgetExceeded
                        # Specialized goal-vs-ground-fact unification: the
                        # goal's arguments were walked at dispatch, so each
                        # is an unbound var (modulo bindings made by this
                        # very loop for repeated vars) or ground.
                        fargs = fact.args
                        ok = True
                        for k in range(nargs):
                            a = gargs[k]
                            if type(a) is Var:
                                nxt = subst_get(a)
                                while nxt is not None:
                                    a = nxt
                                    nxt = subst_get(a) if type(a) is Var else None
                                if type(a) is Var:
                                    subst[a] = fargs[k]
                                    trail_append(a)
                                    continue
                            b = fargs[k]
                            if a is b or a == b:
                                continue
                            if type(a) is Struct and unify_trail(a, b, subst, trail):
                                continue
                            ok = False
                            break
                        if ok:
                            cont, depth = f[2], f[3]
                            advanced = True
                            break
                        if len(trail) > mark:
                            undo_trail(subst, trail, mark)
                    f[6] = fi
                    if advanced:
                        backtrack = False
                        continue
                    rules = f[7]
                    if not rules or f[3] <= 0:
                        # depth bound: silently fail further rule expansion
                        frames.pop()
                        continue
                    while f[8] < len(rules):
                        rule = rules[f[8]]
                        f[8] += 1
                        self._charge()
                        r = rule.rename_apart()
                        if unify_trail(goal, r.head, subst, trail):
                            c = f[2]
                            for lit in reversed(r.body):
                                c = (lit, c)
                            cont, depth = c, f[3] - 1
                            advanced = True
                            break
                        if len(trail) > mark:
                            undo_trail(subst, trail, mark)
                    if advanced:
                        backtrack = False
                        continue
                    frames.pop()
                    continue
                else:  # _F_BETWEEN
                    advanced = False
                    while f[6] <= f[5]:
                        v = f[6]
                        f[6] += 1
                        self._charge()
                        if unify_trail(f[4], Const(v), subst, trail):
                            cont, depth = f[2], f[3]
                            advanced = True
                            break
                        if len(trail) > mark:
                            undo_trail(subst, trail, mark)
                    if advanced:
                        backtrack = False
                        continue
                    frames.pop()
                    continue

            if cont is None:
                yield None
                backtrack = True
                continue
            goal, rest = cont
            while type(goal) is Var:
                nxt = subst_get(goal)
                if nxt is None or nxt == goal:
                    raise TypeError("unbound variable as goal")
                goal = nxt
            if type(goal) is Const:
                ind = (str(goal), 0)
                gargs: list = []
                bound: list[int] = []
                ground = True
                changed = False
            else:
                ind = goal.indicator
                gargs = bound = None  # type: ignore[assignment]
            entry = preds.get(ind)
            if entry is None:
                if is_builtin(ind):
                    entry = preds[ind] = (None, None)
                else:
                    entry = preds[ind] = (self.kb.facts_for(ind), self.kb.rules_for(ind))
            store, rules = entry
            if store is None:
                # Builtins are substitution-aware; the goal's arguments
                # are handed over unresolved.
                outcome = self._builtin_step(goal, ind, rest, depth, subst, trail, frames)
                if outcome is _FAIL:
                    backtrack = True
                elif outcome is _ENTER_FRAME:
                    backtrack = True  # pull the first alternative off the new frame
                else:
                    cont = outcome
                continue

            if gargs is None:
                # Walk each argument once, in place of materializing a
                # resolved copy of the goal: ``gargs`` are the effective
                # argument values (unbound Var | ground term | partial
                # struct), ``bound`` the positions usable as index keys.
                args = goal.args
                gargs = list(args)
                bound = []
                ground = True
                changed = False
                for k in range(len(args)):
                    a = args[k]
                    ta = type(a)
                    if ta is Const:
                        bound.append(k)
                        continue
                    if ta is Var:
                        nxt = subst_get(a)
                        while nxt is not None:
                            a = nxt
                            nxt = subst_get(a) if type(a) is Var else None
                        if type(a) is Var:
                            ground = False
                            gargs[k] = a
                            continue
                    if type(a) is Struct:
                        a = resolve(a, subst)
                        if not a.ground:
                            ground = False
                            gargs[k] = a
                            if a is not args[k]:
                                changed = True
                            continue
                    gargs[k] = a
                    if a is not args[k]:
                        changed = True
                    bound.append(k)

            if ground:
                if not rules:
                    # Ground fast path: a ground goal over a fact-only
                    # predicate is a set-membership test.  It builds no
                    # term: a goal that is not a fact would stay interned
                    # for the life of the process.
                    self.total_ops += 1
                    qo = self._query_ops + 1
                    self._query_ops = qo
                    if qo > max_ops:
                        raise BudgetExceeded
                    if (store.has_args(tuple(gargs)) if changed else goal in store.fact_set):
                        cont = rest
                    else:
                        backtrack = True
                    continue
                if self.memo_enabled and self._is_memoizable(ind):
                    key = Struct(goal.functor, tuple(gargs)) if changed else goal
                    if key not in self._memo_active:
                        if self._memo_prove(key, depth, subst, trail):
                            cont = rest
                        else:
                            backtrack = True
                        continue
            facts = store.candidates_bound(gargs, bound) if type(goal) is Struct else store.facts
            frames.append([Engine._F_PRED, len(trail), rest, depth, goal, facts, 0, rules, 0, gargs])
            backtrack = True

    def _builtin_step(self, goal, ind, rest, depth, subst, trail, frames):
        """One deterministic builtin step.

        Returns the next continuation, ``_FAIL``, or ``_ENTER_FRAME`` after
        pushing a choice point (``between/3`` with an unbound variable).
        """
        self._charge()
        name = ind[0]
        if name == "true":
            return rest
        if name in ("fail", "false"):
            return _FAIL
        args = goal.args if isinstance(goal, Struct) else ()
        if name == "=":
            if unify_trail(args[0], args[1], subst, trail):
                return rest
            return _FAIL
        if name == "\\=":
            mark = len(trail)
            ok = unify_trail(args[0], args[1], subst, trail)
            undo_trail(subst, trail, mark)
            return _FAIL if ok else rest
        if name in ("==", "\\=="):
            same = resolve(args[0], subst) == resolve(args[1], subst)
            return rest if same == (name == "==") else _FAIL
        if name in ("<", ">", "=<", ">="):
            try:
                a = eval_arith(args[0], subst)
                b = eval_arith(args[1], subst)
            except ArithmeticError_:
                return _FAIL
            ok = {"<": a < b, ">": a > b, "=<": a <= b, ">=": a >= b}[name]
            return rest if ok else _FAIL
        if name == "is":
            try:
                value = eval_arith(args[1], subst)
            except ArithmeticError_:
                return _FAIL
            if unify_trail(args[0], Const(value), subst, trail):
                return rest
            return _FAIL
        if name in ("\\+", "not"):
            mark = len(trail)
            found = self._prove_once((args[0], None), depth, subst, trail)
            undo_trail(subst, trail, mark)
            return _FAIL if found else rest
        if name == "between":
            try:
                lo = int(eval_arith(args[0], subst))
                hi = int(eval_arith(args[1], subst))
            except ArithmeticError_:
                return _FAIL
            x = walk(args[2], subst)
            if isinstance(x, Const):
                if isinstance(x.value, int) and lo <= x.value <= hi:
                    return rest
                return _FAIL
            frames.append([Engine._F_BETWEEN, len(trail), rest, depth, x, hi, lo])
            return _ENTER_FRAME
        if name == "dif_const":
            # Succeeds iff both args are (bound to) distinct constants.
            a = walk(args[0], subst)
            b = walk(args[1], subst)
            if isinstance(a, Const) and isinstance(b, Const) and a != b:
                return rest
            return _FAIL
        raise NotImplementedError(f"builtin {ind} not implemented")  # pragma: no cover

    def _prove_once(self, cont, depth: int, subst: dict, trail: list) -> bool:
        """Run a nested machine to its first solution (shared budget/trail)."""
        for _ in self._machine(cont, depth, subst, trail):
            return True
        return False

    # -- ground-goal memo table ---------------------------------------------------
    def _is_memoizable(self, ind: tuple) -> bool:
        """True iff every predicate reachable from ``ind``'s rules is pure
        and negation-free (negation makes provability non-monotone in the
        remaining depth, which would break the memo's depth generalisation)."""
        cached = self._memoizable.get(ind)
        if cached is not None:
            return cached
        ok = True
        seen: set = set()
        stack = [ind]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur[0] in ("\\+", "not"):
                ok = False
                break
            if is_builtin(cur):
                continue
            for rule in self.kb.rules_for(cur):
                for lit in rule.body:
                    stack.append(lit.indicator if isinstance(lit, Struct) else (str(lit), 0))
        self._memoizable[ind] = ok
        return ok

    def _memo_prove(self, goal: Term, depth: int, subst: dict, trail: list) -> bool:
        """Provability of a ground goal, memoized with depth validity.

        Success observed with ``depth`` remaining holds for any remaining
        depth >= that; a completed failure holds for any depth <= it.
        Entries between the two bounds are re-proved.
        """
        entry = self._memo.get(goal)
        if entry is not None:
            s, f = entry
            if s is not None and depth >= s:
                self.memo_hits += 1
                self._charge()
                return True
            if f is not None and depth <= f:
                self.memo_hits += 1
                self._charge()
                return False
        self.memo_misses += 1
        mark = len(trail)
        self._memo_active.add(goal)
        try:
            found = self._prove_once((goal, None), depth, subst, trail)
        finally:
            self._memo_active.discard(goal)
            undo_trail(subst, trail, mark)
        if entry is None:
            entry = self._memo[goal] = [None, None]
        if found:
            entry[0] = depth if entry[0] is None else min(entry[0], depth)
        else:
            entry[1] = depth if entry[1] is None else max(entry[1], depth)
        return found


#: sentinels returned by :meth:`Engine._builtin_step`.
_FAIL = object()
_ENTER_FRAME = object()
