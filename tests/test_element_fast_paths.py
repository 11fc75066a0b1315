"""Element arithmetic over denominator 1 skips the gcd layer: a sum, a
difference or a product of two such elements, and a rational multiple of
any element, must equal the fraction reduced through the full
``polyring.cancel``, with the same printed form, and run no ``cancel``.
So must a tower-shaped denominator, a monomial times level-sum powers;
only a residue, any other factor, reaches ``cancel``."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from deltatower import elements  # noqa: E402
from deltatower.elements import ONE_ELEMENT, ZERO_ELEMENT, Element  # noqa: E402
from deltatower.polyring import ONE, Poly, cancel, monomial, var_b, var_c  # noqa: E402

VARS = [var_b(1, 1), var_b(1, 2), var_b(2, 1), var_c(1, 1), var_c(1, 2)]

rationals = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=7)
polys = st.dictionaries(
    st.lists(st.sampled_from(VARS), max_size=3).map(lambda vs: monomial((v, 1) for v in vs)),
    rationals,
    max_size=4,
).map(Poly)
den_one = polys.map(Element)
# tower-shaped denominators: a generator monomial times a power of e_1
E1 = Poly.variable(var_b(1, 1)) + Poly.variable(var_b(1, 2))
dens = st.builds(
    lambda v, e, k: Poly.variable(v) ** e * E1**k,
    st.sampled_from(VARS[:3]), st.integers(0, 2), st.integers(0, 2),
)
den_any = st.builds(Element, polys, dens).filter(lambda x: not x.den.is_const())

examples = settings(max_examples=100, deadline=None, database=None)


def _reference(num: Poly, den: Poly) -> Element:
    """num/den reduced through the full cancel, as the general path does."""
    _, num, den = cancel(num, den, "the reference fraction")
    return Element(num, den)


@contextmanager
def _counting_cancel():
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elements, "cancel", lambda *a: calls.append(a) or cancel(*a))
        yield calls


def _same(ours: Element, ref: Element) -> None:
    assert ours == ref and str(ours) == str(ref)
    if ours.den.is_const():
        assert ours.den is ONE


@examples
@given(x=den_one | den_any, q=rationals)
def test_rational_multiples_keep_the_canonical_form(x, q):
    with _counting_cancel() as calls:
        left, right = x * q, q * x
    assert calls == []
    ref = _reference(x.num * Poly.const(q), x.den)
    _same(left, ref)
    _same(right, ref)
    if q == 0:
        assert left is ZERO_ELEMENT and right is ZERO_ELEMENT


@examples
@given(x=den_one, y=den_one)
def test_denominator_one_runs_no_cancel(x, y):
    with _counting_cancel() as calls:
        out = (x + y, x - y, x * y)
    assert calls == []
    _same(out[0], _reference(x.num + y.num, Poly.const(1)))
    _same(out[1], _reference(x.num - y.num, Poly.const(1)))
    _same(out[2], _reference(x.num * y.num, Poly.const(1)))


@examples
@given(x=den_any, y=den_one | den_any)
def test_a_tower_denominator_runs_no_cancel(x, y):
    # a monomial times a power of e_1 is cancelled by exponents and trial
    # division alone, with x in either operand's place
    for out, num in (
        (lambda: x + y, x.num * y.den + y.num * x.den),
        (lambda: y + x, x.num * y.den + y.num * x.den),
        (lambda: x - y, x.num * y.den - y.num * x.den),
        (lambda: y - x, y.num * x.den - x.num * y.den),
        (lambda: x * y, x.num * y.num),
        (lambda: y * x, x.num * y.num),
    ):
        with _counting_cancel() as calls:
            result = out()
        assert calls == []
        _same(result, _reference(num, x.den * y.den))


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
    ref = _reference(x.num, x.den * Poly.const(q))
    for divisor in (q, Element.from_rational(q)):
        with _counting_cancel() as calls:
            out = x / divisor
        assert calls == []
        _same(out, ref)


def test_division_by_a_residue_keeps_the_general_path():
    b11, c11 = Element(Poly.variable(var_b(1, 1))), Element(Poly.variable(var_c(1, 1)))
    # a symbol is a monomial: its content cancels with no gcd
    with _counting_cancel() as calls:
        out = b11 * c11 / c11
    assert calls == [] and out == b11
    # c[1][1] + 1 is neither a monomial nor a level sum: a residue
    with _counting_cancel() as calls:
        out = b11 * (c11 + 1) / (c11 + 1)
    assert calls != [] and out == b11
