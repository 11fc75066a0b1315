"""parse_element against references: malformed and over-cap texts keep
their pinned errors, the oracle's printed elements parse back to
themselves, and random expression trees parse to their value computed
by sympy on the tree, independently of Element arithmetic."""

import random
from operator import add, mul, neg, sub, truediv

import pytest

from deltatower import BudgetExceeded, DivisionByZero, ParseError, parse_element
from deltatower.elements import Element
from deltatower.textio import MAX_NESTING
from deltatower.tower import build_spec, random_element

A17, B15 = "(b[1][1] + b[1][2])^16", "(b[1][1] + b[1][3])^15"

# (text, exception type, message, position): what parse_element raised
# when each subexpression was an Element and every operation canonicalised
REFUSED = [
    ("", ParseError, "unexpected end of input (at position 0)", 0),
    ("   ", ParseError, "unexpected end of input (at position 3)", 3),
    ("b[0][1]", ParseError, "symbol indices must be >= 1: b[0][1] (at position 0)", 0),
    ("b[1]", ParseError, "unexpected end of input (at position 4)", 4),
    ("1 +", ParseError, "unexpected end of input (at position 3)", 3),
    ("(1", ParseError, "unexpected end of input (at position 2)", 2),
    ("x", ParseError, "unexpected character 'x' (at position 0)", 0),
    ("1 ** 2", ParseError, "unexpected token '*' (at position 3)", 3),
    ("c[1][1]c[1][2]", ParseError, "trailing input 'c' (at position 7)", 7),
    ("D[1]", ParseError, "unexpected character 'D' (at position 0)", 0),
    ("b[1][1] )", ParseError, "trailing input ')' (at position 8)", 8),
    ("b[-1][1]", ParseError, "symbol indices must be >= 1: b[-1][1] (at position 0)", 0),
    ("b[1][0]", ParseError, "symbol indices must be >= 1: b[1][0] (at position 0)", 0),
    ("b [1][0]", ParseError, "symbol indices must be >= 1: b[1][0] (at position 0)", 0),
    ("b[1][1]^", ParseError, "unexpected end of input (at position 8)", 8),
    ("b[1][1]^b[1][1]", ParseError, "expected integer, found 'b' (at position 8)", 8),
    ("^2", ParseError, "unexpected token '^' (at position 0)", 0),
    ("1 2", ParseError, "trailing input '2' (at position 2)", 2),
    ("2b[1][1]", ParseError, "trailing input 'b' (at position 1)", 1),
    ("b[1][1][1]", ParseError, "trailing input '[' (at position 7)", 7),
    ("[1]", ParseError, "unexpected token '[' (at position 0)", 0),
    ("c[1][1", ParseError, "unexpected end of input (at position 6)", 6),
    ("b[1][1]^--1", ParseError, "expected integer, found '-' (at position 9)", 9),
    ("--1", ParseError, "unexpected token '-' (at position 1)", 1),
    ("1 + -1", ParseError, "unexpected token '-' (at position 4)", 4),
    ("1 * -b[1][1]", ParseError, "unexpected token '-' (at position 4)", 4),
    ("()", ParseError, "unexpected token ')' (at position 1)", 1),
    ("b[1][1] + b[0][1]", ParseError, "symbol indices must be >= 1: b[0][1] (at position 10)", 10),
    ("u[1][1] ^ 2 $", ParseError, "unexpected character '$' (at position 11)", 11),
    ("b[1][1]^1.5", ParseError, "unexpected character '.' (at position 9)", 9),
    ("b[1]{1]", ParseError, "unexpected character '{' (at position 4)", 4),
    ("(b[1][1] + b[1][2])^256", ParseError, "power 256 of 2 terms may expand past 256, the cap", None),
    ("1/(b[1][1] + b[1][2])^-256", ParseError, "power -256 of 2 terms may expand past 256, the cap", None),
    (
        "(b[1][1] + b[1][2] + b[1][3] + c[1][1])^10",
        ParseError, "power 10 of 4 terms may expand past 256, the cap", None,
    ),
    (
        "(1/(b[1][1] + b[1][2] + b[1][3]))^22 * 2",
        ParseError, "power 22 of 3 terms may expand past 256, the cap", None,
    ),
    (f"{A17}*{B15}", ParseError, "product of 17 and 16 terms may pass the cap 256", None),
    (f"1/{A17}*1/{B15}", ParseError, "product of 17 and 16 terms may pass the cap 256", None),
    (f"1/{A17} + 1/{B15}", ParseError, "product of 17 and 16 terms may pass the cap 256", None),
    (f"{A17}/{B15}*{B15}", ParseError, "product of 17 and 16 terms may pass the cap 256", None),
    ("3^32769", ParseError, "power 32769 may need 65538 bits, past the cap 65536", None),
    ("(1/3)^-32769", ParseError, "power -32769 may need 65538 bits, past the cap 65536", None),
    ("2^65536", ParseError, "power 65536 may need 131072 bits, past the cap 65536", None),
    ("(2*b[1][1] + 1/2)^32769", ParseError, "power 32769 of 2 terms may expand past 256, the cap", None),
    ("b[1][1]^2147483648", BudgetExceeded, "an exponent of b[1][1] passes 2147483647, the limit", None),
    ("b[1][1]^4294967296", BudgetExceeded, "an exponent of b[1][1] passes 2147483647, the limit", None),
    (
        "c[1][1]^4294967297*c[1][2]",
        BudgetExceeded, "an exponent of c[1][1] passes 2147483647, the limit", None,
    ),
    (
        "b[1][1]^2147483647*b[1][1]",
        BudgetExceeded, "an exponent of b[1][1] passes 2147483647, the limit", None,
    ),
    ("(b[1][1]^1073741824)^2", BudgetExceeded, "an exponent of b[1][1] passes 2147483647, the limit", None),
    ("b[1][1]^-2147483648", BudgetExceeded, "b[1][1]^2147483648 passes the exponent limit 2147483647", None),
    (
        "(c[1][1]/b[1][1])^2147483648",
        BudgetExceeded, "b[1][1]^2147483648 passes the exponent limit 2147483647", None,
    ),
    (
        "1/b[1][1]^2147483647/b[1][1]",
        BudgetExceeded, "an exponent of b[1][1] passes 2147483647, the limit", None,
    ),
    ("1/0", DivisionByZero, "division by zero element", None),
    ("b[1][1]/0", DivisionByZero, "division by zero element", None),
    ("0^-1", DivisionByZero, "negative power of zero", None),
    ("(b[1][1] - b[1][1])^-2", DivisionByZero, "negative power of zero", None),
    ("1/(b[1][1] - b[1][1])", DivisionByZero, "division by zero element", None),
    ("(c[1][1]/b[1][1] - c[1][1]/b[1][1])^-1", DivisionByZero, "negative power of zero", None),
    pytest.param(
        "(" * 250 + "b[1][1]" + ")" * 250,
        ParseError, "parentheses nest deeper than 125, the cap (at position 125)", 125,
        id="nested-parentheses",
    ),
]


@pytest.mark.parametrize("text, kind, message, position", REFUSED)
def test_refused_texts_keep_their_errors(text, kind, message, position):
    with pytest.raises(kind) as info:
        parse_element(text)
    assert type(info.value) is kind
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position


def test_the_costliest_nesting_parses_at_the_cap():
    # six parser frames a level, the most any shape takes
    assert MAX_NESTING == 125
    assert parse_element("1+1*(" * MAX_NESTING + "b[1][1]" + ")" * MAX_NESTING) is not None


def test_the_bit_cap_boundary_and_large_exponents_are_accepted():
    # the term cap's boundaries are in test_textio.py
    assert parse_element("3^32768") == Element.from_rational(3**32768)
    assert parse_element("(1/3)^-32768") == Element.from_rational(3**32768)
    # exponents cancel as they arise, as in Element arithmetic, so no
    # intermediate one passes 2^31 - 1
    big = "b[1][1]^2000000000"
    assert parse_element(f"({big}/{big})^2*{big}") == Element.from_var(("b", 1, 1)) ** 2000000000


# the oracle workload's corpus: 100 random elements for each of its towers
ORACLE_TOWERS = [(2, 2), (3,), (1, 1, 1), (2, 1, 2), (3, 3)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_oracle_corpus_parses_back(seed):
    for utype in ORACLE_TOWERS:
        spec = build_spec(utype)
        rng = random.Random(f"oracle:{seed}:{utype}")
        for _ in range(100):
            x = random_element(rng, spec)
            text = str(x)
            y = parse_element(text)
            assert y == x and str(y) == text, text


# --- random expression trees against sympy ---------------------------------

pytest.importorskip("hypothesis")

from _support import sympy_symbol, to_sympy  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

SPACE = st.sampled_from(["", "", " ", "  ", "\t"])
# (text, symbol or integer): symbols, compact (one token) or spaced or with
# a leading zero (read bracket by bracket), then integers, one with leading
# zeros; hypothesis starts from the first entry of a sampled list
ATOMS = st.sampled_from([
    (text.format(*v), v)
    for v in [("b", 1, 1), ("b", 1, 2), ("b", 2, 1), ("c", 1, 1), ("c", 2, 3), ("u", 1, 1)]
    for text in ("{}[{}][{}]", "{} [ {} ][{}] ", "{}[0{}][\t{}]")
] + [(str(n), n) for n in range(12, -1, -1)] + [("007", 7)])
KINDS = st.sampled_from(["pow", "/", "*", "+", "-", "neg", "atom"])
REDUNDANT = st.sampled_from([False] * 7 + [True])  # parentheses that need not be there
# precedence of a printed subexpression: a sum or a negation, a product or
# quotient, a power, an atom or parenthesised text
EXPR, TERM, POWER, ATOM = 1, 2, 3, 4
OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


def _wrap(draw, text, prec, lowest, space):
    """text as an operand that needs precedence ``lowest``; parenthesised
    when it binds looser, and sometimes when it need not."""
    if prec < lowest or draw(REDUNDANT):
        return f"({space}{text})"
    return text


def _apply(sympy, fn, *values, divisor=None):
    """fn(*values) as a cancelled sympy fraction, or None once a division
    by zero occurred: ``divisor`` is what the operation divides by."""
    if None in values or divisor == 0:
        return None
    return sympy.cancel(fn(*values))


def _tree(sympy, draw, depth, space):
    """(text, precedence, value) of a random expression tree of at most
    ``depth`` levels, with ``space`` around operators.  Three levels of
    integers up to 12, powers up to 3 in magnitude and symbols stay far
    below every cap."""
    kind = draw(KINDS) if depth else "atom"
    if kind == "atom":
        text, atom = draw(ATOMS)
        return text, ATOM, sympy_symbol(atom) if isinstance(atom, tuple) else sympy.Integer(atom)
    if kind == "neg":
        text, prec, value = _tree(sympy, draw, depth - 1, space)
        return f"-{space}{_wrap(draw, text, prec, TERM, space)}", EXPR, _apply(sympy, neg, value)
    if kind == "pow":
        text, prec, value = _tree(sympy, draw, depth - 1, space)
        n = draw(st.integers(-3, 3))
        exponent = f"-{space}{-n}" if n < 0 else str(n)
        text = f"{_wrap(draw, text, prec, ATOM, space)}{space}^{space}{exponent}"
        return text, POWER, _apply(sympy, lambda x: x**n, value, divisor=value if n < 0 else None)
    op_prec = EXPR if kind in "+-" else TERM
    (left, lp, lv), (right, rp, rv) = (_tree(sympy, draw, depth - 1, space) for _ in range(2))
    left, right = _wrap(draw, left, lp, op_prec, space), _wrap(draw, right, rp, op_prec + 1, space)
    divisor = rv if kind == "/" else None
    return f"{left}{space}{kind}{space}{right}", op_prec, _apply(sympy, OPS[kind], lv, rv, divisor=divisor)


@st.composite
def trees(draw, sympy):
    """(text, sympy value or None for a division by zero) of a tree."""
    space = draw(SPACE)
    text, _, value = _tree(sympy, draw, 3, space)
    return f"{space}{text}{space}", value


@settings(max_examples=200)
@given(data=st.data())
def test_a_tree_parses_to_its_literal_value(data):
    sympy = pytest.importorskip("sympy")
    text, value = data.draw(trees(sympy))
    if value is None:
        with pytest.raises(DivisionByZero):
            parse_element(text)
        return
    parsed = parse_element(text)
    assert sympy.cancel(to_sympy(parsed.num) / to_sympy(parsed.den) - value) == 0, text
    printed = str(parsed)
    reparsed = parse_element(printed)
    assert reparsed == parsed and str(reparsed) == printed
