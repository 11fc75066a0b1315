"""Factored denominators: an Element keeps its denominator as a monomial,
level-sum powers and a residue.  Every operation must give the literal
fraction reduced through ``polyring.cancel`` (and sympy's ``cancel``),
with the same printed form; and a rational element hashes as its
Fraction.  (That ``tower build --check`` on the budget U-types runs no
gcd is checked with their report digests in ``test_cli``.)  The fast
paths skip ``cancel`` altogether: a sum, a difference or a product over
denominator 1, a rational multiple of any element, and any operation on
a tower-shaped denominator, a monomial times level-sum powers; only a
residue, any other factor, reaches ``cancel``."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from _support import P, counting_cancel, literal_p

from deltatower.elements import ONE_ELEMENT, ZERO_ELEMENT, Element, format_element
from deltatower.polyring import ONE, Poly, cancel, level_sum, m_pairs, monomial, var_b, var_c
from deltatower.tower import _derive_poly, build_spec, d_twist, derive


def _reference(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den reduced by the gcd and scaled so that den is monic."""
    _, num, den = cancel(num, den)
    inv = Fraction(1) / den.lead()[1]
    return num.scale(inv), den.scale(inv)


def _agrees(ours: Element, num: Poly, den: Poly) -> None:
    n, d = _reference(num, den)
    assert ours.num == n and ours.den == d
    assert str(ours) == format_element(SimpleNamespace(num=n, den=d))
    assert (repr(ours.num), repr(ours.den)) == (repr(n), repr(d))
    # the same fraction split from its expanded denominator
    raw = Element(ours.num, ours.den)
    assert raw == ours and hash(raw) == hash(ours) and str(raw) == str(ours)
    if ours.den.is_const():
        assert ours.den is ONE


# --- the hash / eq contract ----------------------------------------------


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_a_rational_element_hashes_as_its_fraction(value):
    x = Element.from_rational(value)
    assert x == value and hash(x) == hash(value) and len({value, x}) == 1
    assert len({1, ONE_ELEMENT}) == 1 and {Fraction(1): "one"}[ONE_ELEMENT] == "one"


def test_a_generator_element_hashes_as_its_pair():
    b = Element.from_var(var_b(1, 1))
    e = P(var_b(1, 1)) + P(var_b(1, 2))
    twin = Element(b.num * e, e)
    assert twin == b and hash(twin) == hash(b) == hash((b.num, ONE))
    assert b != 1 and len({b, twin, 1}) == 2


# --- the three parts on the edge cases -------------------------------------

B11, B12, B13 = (P(var_b(1, j)) for j in (1, 2, 3))
C11, C12 = P(var_c(1, 1)), P(var_c(1, 2))
E1 = B11 + B12 + B13


def test_a_rank_one_level_sum_sits_in_the_monomial():
    spec = build_spec((1, 2, 3))
    twist = spec.twist(3)  # 1 / (b[1][1] (b[2][1] + b[2][2]))
    assert m_pairs(twist.mono) == ((var_b(1, 1), 1),)
    assert dict(twist.sums) == {(var_b(2, 1), var_b(2, 2)): 1} and twist.res is ONE
    raw = Element(Poly.const(1), literal_p(spec, 3))
    assert (raw.mono, raw.sums, raw.res) == (twist.mono, twist.sums, twist.res)
    x = Element(B11 * P(var_c(2, 1)))
    _agrees(d_twist(x, 3, spec), _derive_poly(x.num, spec), literal_p(spec, 3))


def test_a_partial_level_sum_is_equal_to_its_expansion():
    # 1/((b11+b12)^2 e_1): the raw split keeps (b11+b12)^2 in the residue,
    # the quotient holds it as a level sum of its own
    half = B11 + B12
    raw = Element(Poly.const(1), half**2 * E1)
    quotient = ONE_ELEMENT / Element(half**2) / Element(E1)
    assert raw.res == half**2 and dict(quotient.sums) == {(var_b(1, 1), var_b(1, 2)): 2,
                                                          (var_b(1, 1), var_b(1, 2), var_b(1, 3)): 1}
    assert quotient == raw and hash(quotient) == hash(raw) and str(quotient) == str(raw)
    _agrees(quotient * Element(half), half, half**2 * E1)
    _agrees(raw + quotient, Poly.const(2), half**2 * E1)


@pytest.mark.parametrize(
    "residue", [B11 - B12, C11 - C12, B11 + Poly.const(2), C11 * B11 - B12], ids=str
)
@pytest.mark.parametrize("lead", [1, -1, Fraction(2, 3), Fraction(-5, 2)])
def test_residues_and_leading_coefficients(residue, lead):
    spec = build_spec((3,))
    den = residue * B11 * E1 * Poly.const(lead)
    num = C11 * B12 + B13
    x = Element(num, den)
    _agrees(x, num, den)
    _agrees(derive(x, spec), _derive_poly(num, spec) * den - num * _derive_poly(den, spec), den * den)
    _agrees(x * Element(residue), num * residue, den)
    _agrees(x + Element(Poly.const(1), residue), num * residue + den, den * residue)


# --- random elements against the literal fraction and sympy ----------------

pytest.importorskip("hypothesis")

from _support import rationals, to_sympy  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

TOWERS = [(2, 2), (3,), (1, 1, 1), (1, 2, 3)]
LEADS = [1, -1, Fraction(2, 3), Fraction(-5, 2)]


@st.composite
def _poly(draw, variables, max_terms=3):
    terms = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(variables), max_size=2), rationals),
        min_size=1, max_size=max_terms,
    ))
    p = Poly({monomial((v, 1) for v in vs): c for vs, c in terms})
    return p or Poly.const(1)


@st.composite
def _denominator(draw, ranks):
    """A tower-shaped denominator: a generator monomial, level sums full and
    partial, sometimes a residue, and a leading coefficient."""
    den = Poly.const(draw(st.sampled_from(LEADS)))
    gens = [var_b(i, j) for i, n in enumerate(ranks, 1) for j in range(1, n + 1)]
    for v in draw(st.lists(st.sampled_from(gens), max_size=2)):
        den = den * P(v)
    for i, n in enumerate(ranks, 1):
        level = [var_b(i, j) for j in range(1, n + 1)]
        den = den * level_sum(tuple(level)) ** draw(st.integers(0, 2 if n > 1 else 1))
        if n > 2 and draw(st.booleans()):
            den = den * level_sum(tuple(level[:2]))
    residues = [ONE, P(gens[0]) - P(gens[-1]), P(var_c(1, 1)) - P(var_c(len(ranks), 1)).scale(2)]
    return den * draw(st.sampled_from(residues))


@st.composite
def _case(draw):
    ranks = draw(st.sampled_from(TOWERS))
    spec = build_spec(ranks)
    variables = [v for i, n in enumerate(ranks, 1) for j in range(1, n + 1)
                 for v in (var_b(i, j), var_c(i, j))]
    x, y = (Element(draw(_poly(variables)), draw(_denominator(ranks))) for _ in range(2))
    return spec, x, y, draw(st.integers(-2, 3)), draw(st.integers(1, len(ranks)))


def _literal_cases(spec, x, y, k, level):
    """(ours, literal numerator, literal denominator) for each operation."""
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    dn, dd = _derive_poly(xn, spec), _derive_poly(xd, spec)
    cases = [
        (x + y, xn * yd + yn * xd, xd * yd),
        (x - y, xn * yd - yn * xd, xd * yd),
        (x * y, xn * yn, xd * yd),
        (x / y, xn * yd, xd * yn),
        (derive(x, spec), dn * xd - xn * dd, xd * xd),
        (d_twist(x, level, spec), dn * xd - xn * dd, xd * xd * literal_p(spec, level)),
    ]
    cases.append((x**k, xn**k, xd**k) if k >= 0 else (x**k, xd**-k, xn**-k))
    return cases


@settings(max_examples=60)
@given(case=_case())
def test_every_operation_is_the_literal_fraction_reduced_by_the_gcd(case):
    for ours, num, den in _literal_cases(*case):
        _agrees(ours, num, den)


@settings(max_examples=5)
@given(case=_case())
def test_every_operation_agrees_with_sympy_cancel(case):
    sympy = pytest.importorskip("sympy")
    for ours, num, den in _literal_cases(*case):
        p, q = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        # reduced alike: the denominators are associates, the values equal
        ratio = sympy.cancel(to_sympy(ours.den) / q)
        assert ratio.is_Rational and ratio != 0
        assert sympy.expand(to_sympy(ours.num) * q - p * to_sympy(ours.den)) == 0


# --- fast paths: no cancel over denominator 1 or a tower denominator ---------

VARS = [var_b(1, 1), var_b(1, 2), var_b(2, 1), var_c(1, 1), var_c(1, 2)]

monomials = st.lists(st.sampled_from(VARS), max_size=3).map(lambda vs: monomial((v, 1) for v in vs))
polys = st.dictionaries(monomials, rationals, max_size=4).map(Poly)
den_one = polys.map(Element)
# tower-shaped denominators: a generator monomial times a power of e_1
dens = st.builds(
    lambda v, e, k: P(v) ** e * (B11 + B12) ** k,
    st.sampled_from(VARS[:3]), st.integers(0, 2), st.integers(0, 2),
)
den_any = st.builds(Element, polys, dens).filter(lambda x: not x.den.is_const())
# one nonzero term over a tower denominator: its reciprocal is over a monomial
one_term = st.builds(lambda m, c, d: Element(Poly({m: c}), d), monomials, rationals.filter(bool), dens)

examples = settings(max_examples=100)


@examples
@given(x=den_one | den_any, q=rationals)
def test_rational_multiples_keep_the_canonical_form(x, q):
    with counting_cancel() as calls:
        left, right = x * q, q * x
    assert calls == []
    _agrees(left, x.num * Poly.const(q), x.den)
    _agrees(right, x.num * Poly.const(q), x.den)
    if q == 0:
        assert left is ZERO_ELEMENT and right is ZERO_ELEMENT


@examples
@given(x=den_one, y=den_one)
def test_denominator_one_runs_no_cancel(x, y):
    with counting_cancel() as calls:
        out = (x + y, x - y, x * y)
    assert calls == []
    _agrees(out[0], x.num + y.num, ONE)
    _agrees(out[1], x.num - y.num, ONE)
    _agrees(out[2], x.num * y.num, ONE)


@examples
@given(x=den_any, y=den_one | den_any, t=one_term, n=st.integers(-3, -1))
def test_a_tower_denominator_runs_no_cancel(x, y, t, n):
    # a monomial times a power of e_1 is cancelled by exponents and trial
    # division alone, with x in either operand's place; dividing by a
    # one-term t and negative powers put a monomial in a denominator
    xy = x.den * y.den
    for out, num, den in (
        (lambda: x + y, x.num * y.den + y.num * x.den, xy),
        (lambda: y + x, x.num * y.den + y.num * x.den, xy),
        (lambda: x - y, x.num * y.den - y.num * x.den, xy),
        (lambda: y - x, y.num * x.den - x.num * y.den, xy),
        (lambda: x * y, x.num * y.num, xy),
        (lambda: y * x, x.num * y.num, xy),
        (lambda: x / t, x.num * t.den, x.den * t.num),
        (lambda: t**n, t.den**-n, t.num**-n),
        (lambda: x**n, x.den**-n, x.num**-n),
    ):
        with counting_cancel() as calls:
            result = out()
        assert calls == []
        _agrees(result, num, den)


@examples
@given(x=den_one | den_any, y=den_one | den_any, q=rationals)
def test_every_constant_denominator_is_the_shared_one(x, y, q):
    nonzero = [e for e in (x, y) if not e.is_zero()]
    made = [
        x, y, x + y, x - y, x * y, x * q, x - x, x**0, x**2,
        Element(x.num, Poly.const(q or 1)), Element.from_rational(q),
        *(e / e for e in nonzero), *(e**-1 for e in nonzero), *(1 / e for e in nonzero),
    ]
    for e in made + [ZERO_ELEMENT, ONE_ELEMENT]:
        if e.den.is_const():
            assert e.den is ONE, e


def test_bool_takes_the_coercing_path():
    x = Element(Poly.variable(var_c(1, 1)))
    assert x * True == x and x * False == ZERO_ELEMENT
    assert x * Fraction(0) is ZERO_ELEMENT


@examples
@given(x=den_one | den_any, q=rationals.filter(bool))
def test_division_by_a_nonzero_rational_runs_no_cancel(x, q):
    for divisor in (q, Element.from_rational(q)):
        with counting_cancel() as calls:
            out = x / divisor
        assert calls == []
        _agrees(out, x.num, x.den * Poly.const(q))


def test_division_by_a_residue_keeps_the_general_path():
    b11, c11 = Element(Poly.variable(var_b(1, 1))), Element(Poly.variable(var_c(1, 1)))
    # a symbol is a monomial: its content cancels with no gcd
    with counting_cancel() as calls:
        out = b11 * c11 / c11
    assert calls == [] and out == b11
    # c[1][1] + 1 is neither a monomial nor a level sum: a residue
    with counting_cancel() as calls:
        out = b11 * (c11 + 1) / (c11 + 1)
    assert calls != [] and out == b11
    # so is its derivative's denominator: the quotient rule's gcd is counted too
    with counting_cancel() as calls:
        derive(1 / (c11 + 1), build_spec((1,)))
    assert "deltatower.tower" in {name for name, _ in calls}
