"""Mode declarations (MDIE language bias).

Mode-Directed Inverse Entailment constrains the hypothesis space through
*mode declarations* in the Progol tradition:

* ``modeh(recall, template)`` — how the head of a rule may look;
* ``modeb(recall, template)`` — which literals may appear in bodies.

Template arguments carry *placemarkers*:

* ``+type`` — input: must be bound to a variable already in scope (of that
  type) when the literal is called;
* ``-type`` — output: a variable that becomes available to later literals;
* ``#type`` — a constant of that type, kept ground in learned rules.

``recall`` bounds how many answers per input binding are added during
saturation (``'*'`` = use the config default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.logic.parser import parse_term
from repro.logic.terms import Const, Struct, Term, Var

__all__ = ["ArgSpec", "ModeDecl", "ModeSet", "parse_mode"]

_PLACEMARKERS = ("+", "-", "#")


@dataclass(frozen=True)
class ArgSpec:
    """One template argument: placemarker kind and type name."""

    kind: str  # '+', '-', or '#'
    type: str

    def __post_init__(self):
        if self.kind not in _PLACEMARKERS:
            raise ValueError(f"invalid placemarker {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}{self.type}"


@dataclass(frozen=True)
class ModeDecl:
    """A single ``modeh``/``modeb`` declaration."""

    predicate: str
    args: tuple[ArgSpec, ...]
    recall: Optional[int] = None  # None = '*': use config default
    is_head: bool = False

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))

    def input_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.args) if a.kind == "+")

    def __str__(self) -> str:
        kind = "modeh" if self.is_head else "modeb"
        recall = "*" if self.recall is None else str(self.recall)
        args = ", ".join(str(a) for a in self.args)
        return f"{kind}({recall}, {self.predicate}({args}))"


def _spec_from_term(t: Term) -> ArgSpec:
    if isinstance(t, Struct) and t.functor in _PLACEMARKERS and t.arity == 1:
        ty = t.args[0]
        if isinstance(ty, Const) and isinstance(ty.value, str):
            return ArgSpec(t.functor, ty.value)
    raise ValueError(f"invalid mode placemarker: {t}")


def parse_mode(src: str, default_head: bool = False) -> ModeDecl:
    """Parse ``"modeh(1, active(+drug))"`` or a bare template
    ``"bond(+mol, -atom, -atom, #btype)"``.

    >>> m = parse_mode("modeb(2, bond(+mol, -atom, #elem))")
    >>> (m.predicate, m.recall, m.input_positions())
    ('bond', 2, (0,))
    """
    term = parse_term(src)
    is_head = default_head
    recall: Optional[int] = None
    if isinstance(term, Struct) and term.functor in ("modeh", "modeb") and term.arity == 2:
        is_head = term.functor == "modeh"
        r, template = term.args
        if isinstance(r, Const) and isinstance(r.value, int):
            if r.value < 1:
                raise ValueError(f"recall must be >= 1 or '*': {src}")
            recall = r.value
        elif isinstance(r, Const) and r.value == "*":
            recall = None
        elif isinstance(r, Var):  # '*' parses as... no; allow var as wildcard
            recall = None
        else:
            raise ValueError(f"invalid recall in mode: {src}")
    else:
        template = term
    if not isinstance(template, Struct):
        raise ValueError(f"mode template must be compound: {src}")
    specs = tuple(_spec_from_term(a) for a in template.args)
    return ModeDecl(template.functor, specs, recall=recall, is_head=is_head)


class ModeSet:
    """The complete language bias: one or more head modes + body modes."""

    def __init__(self, modes: Iterable[Union[ModeDecl, str]] = ()):
        self.head_modes: list[ModeDecl] = []
        self.body_modes: list[ModeDecl] = []
        for m in modes:
            self.add(m)

    def add(self, mode: Union[ModeDecl, str]) -> None:
        if isinstance(mode, str):
            mode = parse_mode(mode)
        if mode.is_head:
            self.head_modes.append(mode)
        else:
            self.body_modes.append(mode)

    def head_mode_for(self, indicator: tuple[str, int]) -> Optional[ModeDecl]:
        for m in self.head_modes:
            if m.indicator == indicator:
                return m
        return None

    def __iter__(self) -> Iterator[ModeDecl]:
        yield from self.head_modes
        yield from self.body_modes

    def validate(self) -> None:
        """Sanity-check the bias: needs >= 1 head mode; every body-mode
        input type must be producible (appear as a head input or some
        output)."""
        if not self.head_modes:
            raise ValueError("ModeSet needs at least one modeh declaration")
        producible = {a.type for m in self.head_modes for a in m.args if a.kind == "+"}
        producible |= {a.type for m in self.body_modes for a in m.args if a.kind == "-"}
        for m in self.body_modes:
            for a in m.args:
                if a.kind == "+" and a.type not in producible:
                    raise ValueError(
                        f"body mode {m} consumes type {a.type!r} that no head input "
                        f"or body output produces"
                    )
