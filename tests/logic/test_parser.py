"""Unit tests for the Prolog-ish parser, and the flat-atom reader of
``parse_term`` against the general reader it stands in front of."""

import time

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro.datasets import DATASETS, SCALES, make_dataset
from repro.logic.clause import Clause
from repro.logic.parser import (
    _FLAT_ATOM_RE,
    _MAX_DEPTH,
    ParseError,
    _read_term,
    parse_clause,
    parse_program,
    parse_term,
    term_to_str,
)
from repro.logic.terms import Const, Struct, Var, atom, is_ground


class TestTerms:
    def test_const(self):
        assert parse_term("abc") == Const("abc")

    def test_int(self):
        assert parse_term("42") == Const(42)

    def test_negative_int(self):
        assert parse_term("-42") == Const(-42)

    def test_float(self):
        assert parse_term("3.25") == Const(3.25)

    def test_negative_float(self):
        assert parse_term("-3.25") == Const(-3.25)

    def test_var(self):
        assert parse_term("Xyz") == Var("Xyz")

    def test_anonymous_var_is_fresh(self):
        t = parse_term("p(_, _)")
        assert t.args[0] != t.args[1]

    def test_compound(self):
        assert parse_term("p(a, B, 3)") == atom("p", "a", "B", 3)

    def test_nested(self):
        t = parse_term("f(g(a), h(X, b))")
        assert t == Struct("f", (atom("g", "a"), atom("h", "X", "b")))

    def test_quoted_atom(self):
        assert parse_term("'hello world'") == Const("hello world")

    def test_quoted_functor(self):
        t = parse_term("'my pred'(a)")
        assert t.functor == "my pred"

    def test_star_atom(self):
        assert parse_term("modeb(*, p(+t))").args[0] == Const("*")


class TestLists:
    def test_empty(self):
        assert parse_term("[]") == Const("[]")

    def test_proper(self):
        t = parse_term("[a, b]")
        assert t == Struct(".", (Const("a"), Struct(".", (Const("b"), Const("[]")))))

    def test_cons_tail(self):
        t = parse_term("[a|T]")
        assert t == Struct(".", (Const("a"), Var("T")))

    def test_roundtrip_str(self):
        assert term_to_str(parse_term("[a, b, c]")) == "[a, b, c]"
        assert term_to_str(parse_term("[a|T]")) == "[a|T]"


class TestOperators:
    def test_arith_precedence(self):
        # 2 + 3 * 4 = +(2, *(3, 4))
        t = parse_term("2 + 3 * 4")
        assert t.functor == "+"
        assert t.args[1].functor == "*"

    def test_left_assoc(self):
        # 10 - 3 - 2 = -(-(10, 3), 2)
        t = parse_term("10 - 3 - 2")
        assert t.functor == "-"
        assert t.args[0].functor == "-"

    def test_parens(self):
        t = parse_term("2 * (3 + 4)")
        assert t.functor == "*"
        assert t.args[1].functor == "+"

    def test_comparison(self):
        t = parse_term("X =< Y")
        assert t == Struct("=<", (Var("X"), Var("Y")))

    def test_is(self):
        t = parse_term("X is Y + 1")
        assert t.functor == "is"

    def test_mode_placemarkers(self):
        t = parse_term("p(+a, -b, #c)")
        assert t.args[0] == Struct("+", (Const("a"),))
        assert t.args[1] == Struct("-", (Const("b"),))
        assert t.args[2] == Struct("#", (Const("c"),))

    def test_negation_prefix(self):
        t = parse_term("\\+ p(a)")
        assert t == Struct("\\+", (atom("p", "a"),))


class TestClauses:
    def test_fact(self):
        c = parse_clause("p(a).")
        assert c == Clause(atom("p", "a"))

    def test_rule(self):
        c = parse_clause("p(X) :- q(X), r(X, Y).")
        assert c.head == atom("p", "X")
        assert c.body == (atom("q", "X"), atom("r", "X", "Y"))

    def test_body_flattening(self):
        c = parse_clause("p :- a, b, c, d.")
        assert len(c.body) == 4

    def test_program(self):
        prog = parse_program(
            """
            % a comment
            p(a).  /* block
                      comment */
            p(b).
            q(X) :- p(X).
            """
        )
        assert len(prog) == 3
        assert prog[2].body == (atom("p", "X"),)


class TestErrors:
    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_clause("p(a)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_term("p(a")

    def test_bad_char(self):
        with pytest.raises(ParseError):
            parse_term("p(@)")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_term("p(a) q")

    def test_error_mentions_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_program("p(a).\nq(@).")

    def test_nesting_past_the_cap_is_a_parse_error(self):
        deep = _MAX_DEPTH - 1
        assert parse_term("f(" * deep + "a" + ")" * deep).ground
        for src in (
            "f(" * 3000 + "a" + ")" * 3000,
            "[" * 3000 + "]" * 3000,
            "(" * 3000 + "a" + ")" * 3000,
            "- " * 3000 + "a",
            "a, " * 3000 + "a",
        ):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_term(src)


# --- the flat-atom reader -------------------------------------------------------

# Whitespace the tokenizer skips, Unicode included.
_WS = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c"])
_NAMES = st.sampled_from(["a", "m17", "e0_0", "is", "mod", "xY_9", "t"]) | st.from_regex(
    r"[a-z][A-Za-z0-9_]{0,4}", fullmatch=True
)
# Leading zeros, exponents, Unicode digits (Arabic-Indic, fullwidth).
_NUMBERS = st.sampled_from(
    ["0", "007", "42", "1.5", "0.25e3", "2.0E-1", "3.0e+2", "1.5e", "\u0661\u0662",
     "\u0663.\u0665", "\uff11\uff12", "-1", "- 2.5", "3."]
) | st.integers(0, 10**12).map(str)
# One text of every other token kind, and characters no token starts with.
_OTHERS = st.sampled_from(
    ["X", "_", "_G1", "Abc", "'q a'", "'it\\'s'", "% note\n", "/* b */", "(", ")", "()",
     ",", "[", "]", "[]", "|", "-", "+", "*", "/", "=", "\\=", "==", "=<", ":-", "?-",
     "=..", "\\+", "#", "!", ".", "@", "\u00e9", "mod", "is", "f(", "g(a)"]
)
_PIECES = _NAMES | _NUMBERS | _OTHERS | _WS


@st.composite
def _near_atoms(draw):
    """``name(a1, ..., an)`` with random whitespace, sometimes one random
    piece inserted and one character dropped or replaced by any other:
    mostly the fast reader's language and its near misses."""
    parts = [draw(_WS), draw(_NAMES), draw(_WS), "("]
    for i, arg in enumerate(draw(st.lists(_NAMES | _NUMBERS, min_size=1, max_size=4))):
        parts += ([","] if i else []) + [draw(_WS), arg, draw(_WS)]
    parts += [")", draw(_WS)]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(_PIECES))
    src = "".join(parts)
    at = draw(st.integers(0, len(src) - 1))
    edit = draw(st.sampled_from(["keep", "drop", "replace"]))
    if edit != "keep":
        src = src[:at] + (draw(st.characters()) if edit == "replace" else "") + src[at + 1:]
    return src


_NESTED = st.recursive(
    _NAMES | _NUMBERS | st.sampled_from(["X", "_", "[]"]),
    lambda inner: st.one_of(
        st.builds(lambda f, args: f"{f}({', '.join(args)})", _NAMES, st.lists(inner, min_size=1, max_size=3)),
        st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
        st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from(["is", "mod", "+", "=", ","]), inner),
    ),
    max_leaves=8,
)


def _read(reader, src):
    try:
        return reader(src), None
    except Exception as exc:  # the readers must fail alike, whatever the error
        return None, f"{type(exc).__name__}: {exc}"


def _renamed(term, names):
    """``term`` with its variables renamed by first occurrence (``_`` reads
    as a fresh variable each time)."""
    if isinstance(term, Var):
        return Var(names.setdefault(term.name, f"V{len(names)}"))
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(_renamed(a, names) for a in term.args))
    return term


def _assert_readers_agree(src):
    event("flat atom" if _FLAT_ATOM_RE.fullmatch(src) else "general reader")
    fast, fast_error = _read(parse_term, src)
    general, general_error = _read(_read_term, src)
    assert fast_error == general_error
    if general_error is None:
        if is_ground(general):
            assert fast is general
        else:
            assert _renamed(fast, {}) == _renamed(general, {})


class TestFlatAtomReader:
    @given(_near_atoms())
    def test_agrees_with_the_general_reader_near_flat_atoms(self, src):
        _assert_readers_agree(src)

    @given(st.lists(_PIECES, max_size=10).map("".join))
    def test_agrees_with_the_general_reader_on_token_soup(self, src):
        _assert_readers_agree(src)

    @given(_NESTED, _WS, st.sampled_from(["", ".", " q", "%c", "/* c */", ")"]))
    def test_agrees_with_the_general_reader_on_nested_terms(self, src, ws, tail):
        _assert_readers_agree(ws + src + ws + tail)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_every_dataset_example_reads_back_as_itself(self, name, scale):
        ds = make_dataset(name, scale=scale, seed=0)
        for e in list(ds.pos) + list(ds.neg):
            text = str(e)
            assert _FLAT_ATOM_RE.fullmatch(text) is not None, text
            assert parse_term(text) is e

    @pytest.mark.parametrize(
        "near_miss",
        [
            "f(" + "a," * 150_000 + ")",
            "f(" + "ab, " * 75_000 + "X)",
            "f(" + "1" * 299_996 + ".)",
            "f(a" + " " * 299_995 + "b)",
            "f(" + "m17, " * 60_000,
            " " * 300_000 + "X",
        ],
        ids=["trailing-comma", "variable-last", "int-dot", "space-run", "unclosed", "blank-var"],
    )
    def test_near_miss_is_rejected_in_linear_time(self, near_miss):
        # One pass over 300 000 characters takes tens of milliseconds; a
        # pattern that backtracked quadratically would take minutes.
        t0 = time.perf_counter()
        assert _FLAT_ATOM_RE.fullmatch(near_miss) is None
        assert time.perf_counter() - t0 < 1.0
