"""A small Prolog-ish reader.

Supports the subset of ISO Prolog syntax that ILP datasets and mode
declarations need:

* atoms (``ethyl``, quoted ``'di ethyl'``), variables (``X``, ``_``),
  integers and floats (including negatives);
* compound terms ``f(a, B, g(c))``;
* lists ``[a, b, c]`` and ``[H|T]`` (desugared to ``'.'/2`` and ``[]``);
* infix operators: ``:-``, ``,``, comparison (``=``, ``\\=``, ``<``, ``>``,
  ``=<``, ``>=``, ``==``, ``\\==``, ``is``) and arithmetic
  (``+ - * / mod min max``);
* prefix mode placemarkers ``+type``, ``-type``, ``#type`` (used inside
  ``modeh``/``modeb`` declarations);
* ``%`` line comments and ``/* ... */`` block comments;
* clauses terminated by ``.``.

The grammar is intentionally small; anything outside it raises
:class:`ParseError` with a line/column position, and so does a term
nested deeper than 200 levels (``_MAX_DEPTH``), before Python's own
recursion limit could refuse it.

**The flat-atom reader.**  :func:`parse_term` first tries one compiled
``fullmatch`` for a *flat ground atom* — ``name(a1, ..., an)`` with
n ≥ 1, each ``ai`` a single name, integer or float token (no sign), and
whitespace wherever the tokenizer skips it.  Its pattern is assembled
from the tokenizer's own token sub-patterns.  A match builds the
constants and the struct directly and returns the **same object** the
general reader returns for that text (ground terms are interned).
Anything else — variables, ``_``, quoted atoms, negative numbers,
operators, lists, nesting, comments, ``f()`` and every error — goes to
the general reader unchanged, so the two can never disagree on an error.
Every example of the shipped datasets is a flat ground atom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.logic.clause import Clause
from repro.logic.terms import Const, Struct, Term, Var

__all__ = ["ParseError", "parse_term", "parse_clause", "parse_program", "term_to_str"]


class ParseError(ValueError):
    """Raised on malformed input, with position information."""


# --- tokenizer -----------------------------------------------------------------

_PUNCT_TOKENS = [
    ":-", "?-", "=..", "\\==", "\\=", "\\+", "==", "=<", ">=", "=",
    "<", ">", "+", "-", "*", "/", "(", ")", "[", "]", "|", ",", ".", "#", "!",
]
_PUNCT_ALT = "|".join(re.escape(t) for t in sorted(_PUNCT_TOKENS, key=len, reverse=True))

# The sub-patterns the flat-atom reader shares with the tokenizer.
_FLOAT = r"\d+\.\d+(?:[eE][+-]?\d+)?"
_INT = r"\d+"
_NAME = r"[a-z][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<line_comment>%[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    rf"|(?P<float>{_FLOAT})"
    rf"|(?P<int>{_INT})"
    r"|(?P<qatom>'(?:[^'\\]|\\.)*')"
    rf"|(?P<name>{_NAME})"
    r"|(?P<var>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<punct>" + _PUNCT_ALT + ")",
    re.DOTALL,
)

# A flat ground atom ``name(a1, ..., an)``: each argument one name, int or
# float token, whitespace wherever the tokenizer skips it.  Groups: the
# functor, the first argument, and the ``, a2, ...`` rest (empty for one
# argument).  Every repetition starts with a literal ``,`` and no two
# ``\s*`` touch, so a near miss fails after one backtracking pass.
_ARG = f"(?:{_FLOAT}|{_INT}|{_NAME})"
_FLAT_ATOM_RE = re.compile(
    rf"\s*({_NAME})\s*\(\s*({_ARG})\s*((?:,\s*{_ARG}\s*)*)\)\s*"
)


@dataclass
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    n = len(src)
    while i < n:
        m = _TOKEN_RE.match(src, i)
        if not m:
            line = src.count("\n", 0, i) + 1
            raise ParseError(f"unexpected character {src[i]!r} at line {line}")
        i = m.end()
        kind = m.lastgroup
        if kind in ("ws", "line_comment", "block_comment"):
            continue
        toks.append(_Tok(kind, m.group(), m.start()))
    toks.append(_Tok("eof", "", n))
    return toks


# --- operator table -------------------------------------------------------------
# (priority, type); xfx = non-assoc infix, xfy = right-assoc, yfx = left-assoc.
_INFIX = {
    ":-": (1200, "xfx"),
    ",": (1000, "xfy"),
    "is": (700, "xfx"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "mod": (400, "yfx"),
}
# Mode placemarkers and arithmetic negation.
_PREFIX = {
    "+": 200,
    "-": 200,
    "#": 200,
    "\\+": 900,  # negation-as-failure
}

_NIL = Const("[]")

# Nesting cap of the general reader (operands, arguments, list items and
# right-hand sides of xfy chains all count).  Each level costs at most three
# Python frames, so the cap stays well inside the default recursion limit.
_MAX_DEPTH = 200


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0

    # -- token helpers ---------------------------------------------------------
    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            self.err(f"expected {text!r}, got {t.text!r}", t)
        return t

    def err(self, msg: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        line = self.src.count("\n", 0, tok.pos) + 1
        raise ParseError(f"{msg} at line {line}")

    # -- grammar -----------------------------------------------------------------
    def parse_term(self, max_prec: int = 1200) -> Term:
        # Every recursion of the reader passes here: refuse deep input with
        # a ParseError before Python's stack refuses it with RecursionError.
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.err(f"term nested deeper than {_MAX_DEPTH} levels")
        left = self.parse_primary(max_prec)
        while True:
            t = self.peek()
            op = t.text
            if t.kind in ("punct", "name") and op in _INFIX:
                prec, typ = _INFIX[op]
                if prec > max_prec:
                    break
                # ',' only acts as an operator when allowed (inside clause
                # bodies); argument lists cap max_prec at 999.
                self.next()
                right_max = prec if typ == "xfy" else prec - 1
                right = self.parse_term(right_max)
                left = Struct(op, (left, right))
            else:
                break
        self.depth -= 1
        return left

    def parse_primary(self, max_prec: int) -> Term:
        t = self.next()
        if t.kind == "int":
            return Const(int(t.text))
        if t.kind == "float":
            return Const(float(t.text))
        if t.kind == "var":
            if t.text == "_":
                from repro.logic.terms import fresh_var

                return fresh_var("_A")
            return Var(t.text)
        if t.kind == "qatom":
            name = t.text[1:-1].replace("\\'", "'").replace("\\\\", "\\")
            return self.maybe_args(name)
        if t.kind == "name":
            if t.text in _PREFIX and self.peek().text == "(":
                # e.g. treat like an ordinary functor when applied: mod(X,Y)
                return self.maybe_args(t.text)
            return self.maybe_args(t.text)
        if t.kind == "punct":
            if t.text == "(":
                inner = self.parse_term(1200)
                self.expect(")")
                return inner
            if t.text == "[":
                return self.parse_list()
            if t.text in ("+", "-", "#", "\\+"):
                prec = _PREFIX[t.text]
                if prec > max_prec:
                    self.err(f"prefix operator {t.text!r} not allowed here", t)
                # numeric negation folds into the constant
                if t.text == "-":
                    nxt = self.peek()
                    if nxt.kind in ("int", "float"):
                        self.next()
                        v = -int(nxt.text) if nxt.kind == "int" else -float(nxt.text)
                        return Const(v)
                arg = self.parse_term(prec)
                return Struct(t.text, (arg,))
            if t.text == "!":
                return Const("!")
            if t.text == "*":
                # '*' in primary position is the atom '*' (recall wildcard
                # in mode declarations: modeb(*, ...)).
                return Const("*")
        self.err(f"unexpected token {t.text!r}", t)
        raise AssertionError  # unreachable

    def maybe_args(self, name: str) -> Term:
        if self.peek().text == "(":
            self.next()
            args = [self.parse_term(999)]
            while self.peek().text == ",":
                self.next()
                args.append(self.parse_term(999))
            self.expect(")")
            return Struct(name, tuple(args))
        return Const(name)

    def parse_list(self) -> Term:
        if self.peek().text == "]":
            self.next()
            return _NIL
        items = [self.parse_term(999)]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_term(999))
        tail: Term = _NIL
        if self.peek().text == "|":
            self.next()
            tail = self.parse_term(999)
        self.expect("]")
        for item in reversed(items):
            tail = Struct(".", (item, tail))
        return tail

    def parse_clause(self) -> Clause:
        term = self.parse_term(1200)
        self.expect(".")
        return term_to_clause(term)

    def parse_program(self) -> list[Clause]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.parse_clause())
        return out

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


def term_to_clause(term: Term) -> Clause:
    """Interpret a parsed term as a clause (splitting on ``:-`` and ``,``)."""
    if isinstance(term, Struct) and term.functor == ":-" and term.arity == 2:
        head, body = term.args
        return Clause(head, _flatten_conj(body))
    return Clause(term, ())


def _flatten_conj(term: Term) -> tuple[Term, ...]:
    if isinstance(term, Struct) and term.functor == "," and term.arity == 2:
        return _flatten_conj(term.args[0]) + _flatten_conj(term.args[1])
    return (term,)


def parse_term(src: str) -> Term:
    """Parse a single term. ``parse_term("p(X, a)")``

    A flat ground atom is read by one pattern match; it returns the same
    (interned) object the general reader would.
    """
    m = _FLAT_ATOM_RE.fullmatch(src)
    if m is None:
        return _read_term(src)
    functor, first, rest = m.groups()
    if not rest:
        return Struct(functor, (_flat_const(first),))
    others = (_flat_const(a.strip()) for a in rest.split(",")[1:])
    return Struct(functor, (_flat_const(first), *others))


def _flat_const(text: str) -> Const:
    """The constant of one name, int or float token of a flat atom."""
    if "a" <= text[0] <= "z":
        return Const(text)
    return Const(float(text) if "." in text else int(text))


def _read_term(src: str) -> Term:
    """The general reader behind :func:`parse_term`."""
    p = _Parser(src)
    t = p.parse_term(1200)
    if not p.at_eof():
        p.err("trailing input after term")
    return t


def parse_clause(src: str) -> Clause:
    """Parse one clause, e.g. ``parse_clause("p(X) :- q(X), r(X).")``."""
    p = _Parser(src)
    c = p.parse_clause()
    if not p.at_eof():
        p.err("trailing input after clause")
    return c


def parse_program(src: str) -> list[Clause]:
    """Parse a whole program (facts and rules)."""
    return _Parser(src).parse_program()


def term_to_str(term: Term) -> str:
    """Render a term back to (approximately) the surface syntax."""
    if isinstance(term, Struct):
        if term.functor == "." and term.arity == 2:
            items, tail = [], term
            while isinstance(tail, Struct) and tail.functor == "." and tail.arity == 2:
                items.append(term_to_str(tail.args[0]))
                tail = tail.args[1]
            if tail == _NIL:
                return "[" + ", ".join(items) + "]"
            return "[" + ", ".join(items) + "|" + term_to_str(tail) + "]"
        if term.functor in _INFIX and term.arity == 2:
            a, b = term.args
            return f"{term_to_str(a)} {term.functor} {term_to_str(b)}"
        if term.functor in _PREFIX and term.arity == 1:
            return f"{term.functor}{term_to_str(term.args[0])}"
        return f"{term.functor}({', '.join(term_to_str(a) for a in term.args)})"
    return str(term)
