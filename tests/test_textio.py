"""Grammar round-trips and parser errors."""

import random

import pytest

from deltatower import DivisionByZero, ParseError, parse_element
from deltatower.elements import Element
from deltatower.textio import MAX_POWER_TERMS
from deltatower.tower import build_spec, random_element


def test_basic_atoms():
    assert parse_element("0").is_zero()
    assert parse_element("42") == Element.from_rational(42)
    assert parse_element("-7/2") == Element.from_rational(-7) / 2
    assert parse_element("b[1][1]") == Element.from_var(("b", 1, 1))
    assert parse_element("c[2][3]") == Element.from_var(("c", 2, 3))
    assert parse_element("u[1][1]") == Element.from_var(("u", 1, 1))


def test_precedence_and_associativity():
    b = Element.from_var(("b", 1, 1))
    c = Element.from_var(("c", 1, 1))
    assert parse_element("3/2*b[1][1]") == Element.from_rational(3) / 2 * b
    assert parse_element("1 + 2*b[1][1]^2") == 1 + 2 * b**2
    assert parse_element("b[1][1]/c[1][1]/2") == b / c / 2
    assert parse_element("(b[1][1] + 1)^2") == (b + 1) ** 2
    assert parse_element("b[1][1]^-1") == 1 / b


def test_negative_exponent_and_unary_minus():
    b = Element.from_var(("b", 1, 1))
    assert parse_element("-b[1][1]") == -b
    assert parse_element("2^-2") == Element.from_rational(1) / 4


def test_parse_errors():
    for bad in ("", "b[0][1]", "b[1]", "1 +", "(1", "x", "1 ** 2", "c[1][1]c[1][2]", "D[1]"):
        with pytest.raises(ParseError):
            parse_element(bad)


def test_power_expansion_cap():
    # (t terms)^n may have C(n+t-1, t-1) terms: 256 for t=2, n=255
    assert len(parse_element("(b[1][1] + b[1][2])^255").num.terms) == MAX_POWER_TERMS
    assert parse_element("b[1][1]^1000") == Element.from_var(("b", 1, 1)) ** 1000
    for bad in (
        "(b[1][1] + b[1][2])^256",
        "1/(b[1][1] + b[1][2])^-256",
        "(b[1][1] + b[1][2] + b[1][3] + c[1][1])^10",
        "(1/(b[1][1] + b[1][2] + b[1][3]))^22 * 2",
    ):
        with pytest.raises(ParseError, match="cap"):
            parse_element(bad)
    assert parse_element("(b[1][1] + b[1][2] + b[1][3] + c[1][1])^9") is not None


def test_product_and_sum_cap():
    # A = (b11 + b12)^15 and B = (b11 + b13)^15 have 16 terms each
    a, b = "(b[1][1] + b[1][2])^15", "(b[1][1] + b[1][3])^15"
    a17 = "(b[1][1] + b[1][2])^16"
    assert len(parse_element(f"{a}*{b}").num.terms) == MAX_POWER_TERMS
    assert parse_element(f"b[1][1]/{a} + b[1][2]/{b}") is not None
    assert parse_element(f"{a}/{a}") == Element.from_rational(1)
    for bad in (f"{a17}*{b}", f"1/{a17}*1/{b}", f"1/{a17} + 1/{b}", f"{a17}/{b}*{b}"):
        with pytest.raises(ParseError, match="cap"):
            parse_element(bad)


def test_long_printed_forms_pass_the_cap():
    # each polynomial product in "(num)/(den)" has a single-term side
    b11, b12, b13 = (Element.from_var(("b", 1, j)) for j in (1, 2, 3))
    x = (b11 + b12) ** 299 / (b11 + b13) ** 299
    assert len(x.num.terms) > MAX_POWER_TERMS and len(x.den.terms) > MAX_POWER_TERMS
    assert parse_element(str(x)) == x


def test_trailing_input_is_a_parse_error():
    assert parse_element(" b[1][1]  ") == Element.from_var(("b", 1, 1))
    with pytest.raises(ParseError, match="trailing input"):
        parse_element("b[1][1] )")


def test_literal_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_element("1/0")


def test_printing_is_grammar_compatible():
    cases = [
        "c[1][2] + c[1][1]",
        "b[1][1]/b[1][2]",
        "(b[1][1] + 1)/(b[1][2] + 1)",
        "3/2*c[1][1]*b[1][1]^2 - 1/2",
    ]
    for text in cases:
        e = parse_element(text)
        assert parse_element(str(e)) == e


@pytest.mark.parametrize("seed", range(25))
def test_random_roundtrip_bit_exact(seed):
    rng = random.Random(seed)
    spec = build_spec((2, 2))
    x = random_element(rng, spec)
    y = rng.choice([x, x / (spec.e(1) + rng.randint(1, 3))])
    printed = str(y)
    reparsed = parse_element(printed)
    assert reparsed == y
    assert str(reparsed) == printed  # printing is canonical, hence bit-exact

