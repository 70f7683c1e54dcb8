"""Built-in predicates for the SLD engine.

Arithmetic is evaluated over :class:`Const` ints/floats, with the usual
Prolog evaluable functors (``+ - * / mod abs min max``).  Comparison
builtins require both sides to evaluate to numbers; ``=``/``\\=`` are
syntactic (unification-based).
"""

from __future__ import annotations

from typing import Callable

from repro.logic.terms import Const, Term, Var
from repro.logic.unify import Subst, walk

__all__ = ["ArithmeticError_", "eval_arith", "is_builtin", "BUILTIN_INDICATORS"]


class ArithmeticError_(ValueError):
    """Raised when an arithmetic expression cannot be evaluated."""


_EVALUABLE: dict[tuple[str, int], Callable] = {
    ("+", 2): lambda a, b: a + b,
    ("-", 2): lambda a, b: a - b,
    ("*", 2): lambda a, b: a * b,
    ("/", 2): lambda a, b: a / b,
    ("mod", 2): lambda a, b: a % b,
    ("min", 2): min,
    ("max", 2): max,
    ("-", 1): lambda a: -a,
    ("+", 1): lambda a: a,
    ("abs", 1): abs,
}


def eval_arith(term: Term, subst: Subst) -> float | int:
    """Evaluate an arithmetic expression term under ``subst``."""
    t = walk(term, subst)
    if isinstance(t, Const):
        if isinstance(t.value, (int, float)) and not isinstance(t.value, bool):
            return t.value
        raise ArithmeticError_(f"non-numeric constant in arithmetic: {t}")
    if isinstance(t, Var):
        raise ArithmeticError_(f"unbound variable in arithmetic: {t}")
    fn = _EVALUABLE.get((t.functor, t.arity))
    if fn is None:
        raise ArithmeticError_(f"unknown evaluable functor {t.functor}/{t.arity}")
    return fn(*(eval_arith(a, subst) for a in t.args))


# Indicators the engine dispatches specially (see Engine._builtin_step).
BUILTIN_INDICATORS = frozenset(
    {
        ("true", 0),
        ("fail", 0),
        ("false", 0),
        ("=", 2),
        ("\\=", 2),
        ("==", 2),
        ("\\==", 2),
        ("<", 2),
        (">", 2),
        ("=<", 2),
        (">=", 2),
        ("is", 2),
        ("\\+", 1),
        ("not", 1),
        ("between", 3),
        ("dif_const", 2),
    }
)


def is_builtin(indicator: tuple[str, int]) -> bool:
    return indicator in BUILTIN_INDICATORS
