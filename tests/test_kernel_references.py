"""The two certificate kernels against the literal paths they replaced.

``relations.qlinear_dot`` builds sum(r_j * values_j) over denominator 1 as
one accumulation of the numerators' terms; ``elements.format_poly`` and
``Poly.__repr__`` decode each monomial once for both its sort key and its
factors.  The references below are the earlier bodies, kept verbatim: a
run of ``Element`` sums, and a printer that sorts by ``MONOMIAL_KEY``,
decodes again with ``m_pairs`` and orders the factors with a key
function.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from _support import rationals  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from deltatower.elements import ONE_ELEMENT, ZERO_ELEMENT, Element, format_poly  # noqa: E402
from deltatower.errors import LengthMismatch  # noqa: E402
from deltatower.polyring import (  # noqa: E402
    MONOMIAL_KEY,
    ONE,
    Poly,
    m_pairs,
    monomial,
    var_b,
    var_c,
    var_name,
)
from deltatower.relations import qlinear_dot  # noqa: E402

# --- the references ---------------------------------------------------------


def reference_qlinear_dot(r, values):
    if len(r) != len(values):
        raise LengthMismatch(f"{len(r)} coefficients for {len(values)} values")
    out = ZERO_ELEMENT
    for coeff, value in zip(r, values):
        out = out + value * Fraction(coeff)
    return out


def reference_descending_terms(p):
    ms = sorted(p.terms, key=MONOMIAL_KEY, reverse=True)
    return [(m_pairs(m), p.terms[m]) for m in ms]


def _print_factor_key(pair):
    (kind, level, index), _ = pair
    return (kind == "b", kind, level, index)


def reference_format_term(pairs, c, *, lead):
    mag = abs(c)
    factors = []
    if mag != 1 or not pairs:
        factors.append(str(mag))
    for v, e in sorted(pairs, key=_print_factor_key):
        factors.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
    body = "*".join(factors)
    if lead:
        return body if c >= 0 else f"-{body}"
    return f" + {body}" if c >= 0 else f" - {body}"


def reference_format_poly(p):
    if p.is_zero():
        return "0"
    out = []
    for i, (pairs, c) in enumerate(reference_descending_terms(p)):
        out.append(reference_format_term(pairs, c, lead=(i == 0)))
    return "".join(out)


def reference_format_element(x):
    num_str = reference_format_poly(x.num)
    if x.den == ONE:
        return num_str
    if len(x.num.terms) > 1:
        num_str = f"({num_str})"
    den_str = reference_format_poly(x.den)
    single_factor = len(x.den.terms) == 1 and len(m_pairs(next(iter(x.den.terms)))) == 1
    if not single_factor:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def reference_repr(p):
    if not p.terms:
        return "Poly(0)"
    bits = []
    for pairs, c in reference_descending_terms(p):
        mono = "*".join(f"{var_name(v)}^{e}" if e > 1 else var_name(v) for v, e in pairs)
        bits.append(f"{c}" + (f"*{mono}" if mono else ""))
    return "Poly(" + " + ".join(bits) + ")"


# --- strategies ---------------------------------------------------------------

VARS = [var_b(1, 1), var_b(1, 2), var_b(2, 1), var_c(1, 1), var_c(1, 2), var_c(2, 1), ("u", 1, 1)]
# never used elsewhere: each sorts before every variable of its kind, so
# registering one moves the key shift and the print place of the others
LATE_VARS = [(kind, 0, j) for j in (1, 2) for kind in "cbu"]

unit_heavy = st.sampled_from([1, -1]) | rationals
monomials = st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3).map(monomial)
polys = st.dictionaries(monomials, unit_heavy, max_size=5).map(Poly)
# tower-shaped denominators: a monomial times a power of e_1
E1 = Poly.variable(var_b(1, 1)) + Poly.variable(var_b(1, 2))
dens = st.builds(lambda m, k: Poly({m: 1}) * E1**k, monomials, st.integers(0, 2))
elements = st.builds(Element, polys, st.just(ONE) | dens)
values = polys.map(Element) | elements | st.just(ZERO_ELEMENT)
coefficients = st.integers(-4, 4) | st.fractions(min_value=-4, max_value=4, max_denominator=5)

examples = settings(max_examples=150)


# --- qlinear_dot ----------------------------------------------------------------


@examples
@given(st.data())
def test_qlinear_dot_matches_the_element_sums(data):
    m = data.draw(st.integers(0, 4))
    r = data.draw(st.lists(coefficients, min_size=m, max_size=m))
    xs = data.draw(st.lists(values, min_size=m, max_size=m))
    got, want = qlinear_dot(r, xs), reference_qlinear_dot(r, xs)
    assert got == want
    assert str(got) == str(want)
    assert got.den is ONE or not want.den.is_const()


@examples
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.data())
def test_qlinear_dot_over_denominator_one_runs_no_element_sum(r, data):
    xs = data.draw(st.lists(polys.map(Element), min_size=len(r), max_size=len(r)))
    want = reference_qlinear_dot(r, xs)
    calls = []
    real = Element._plus
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Element, "_plus", lambda x, o, negate: calls.append(o) or real(x, o, negate))
        got = qlinear_dot(r, xs)
    assert calls == []
    assert got == want and str(got) == str(want) and got.den is ONE


@pytest.mark.parametrize(
    "r, xs",
    [
        ([1], []),
        ([1, 2], [ONE_ELEMENT]),
        ([1], [ONE_ELEMENT, Element(ONE, E1)]),
        ([], [Element(ONE, E1)]),
    ],
)
def test_a_length_mismatch_is_raised_first(r, xs):
    with pytest.raises(LengthMismatch):
        qlinear_dot(r, xs)


# --- the printer ------------------------------------------------------------------


@examples
@given(polys)
def test_format_poly_and_repr_match_the_reference(p):
    assert format_poly(p) == reference_format_poly(p)
    assert repr(p) == reference_repr(p)


@examples
@given(elements)
def test_str_of_an_element_matches_the_reference(x):
    assert str(x) == reference_format_element(x)
    assert repr(x) == f"Element({reference_format_element(x)})"


@examples
@given(polys, polys, st.sampled_from(LATE_VARS))
def test_printing_after_a_variable_registers(p, q, late):
    before = (format_poly(p), repr(p))
    assert before == (reference_format_poly(p), reference_repr(p))
    x = p * Poly.variable(late) ** 2 + q * Poly.variable(late) + p  # may register `late`
    assert (format_poly(x), repr(x)) == (reference_format_poly(x), reference_repr(x))
    assert (format_poly(p), repr(p)) == before
