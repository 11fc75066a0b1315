"""Engine-level tests: monomial order, exact division, gcd."""

import random
from fractions import Fraction

import pytest

from deltatower.polyring import (
    MONOMIAL_KEY,
    Poly,
    _make_primitive,
    _may_divide,
    _prs_gcd,
    exact_div,
    m_degree,
    monomial,
    poly_gcd,
    var_b,
    var_c,
)

B11 = var_b(1, 1)
B12 = var_b(1, 2)
C11 = var_c(1, 1)


def P(v):
    return Poly.variable(v)


def m_cmp(m1, m2):
    """The graded lex order spelled out: degree first, then the most
    significant variable; the reference that MONOMIAL_KEY must match."""
    d1, d2 = m_degree(m1), m_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i, j = len(m1) - 1, len(m2) - 1
    while i >= 0 and j >= 0:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 != v2:
            return 1 if v1 > v2 else -1
        if e1 != e2:
            return 1 if e1 > e2 else -1
        i -= 1
        j -= 1
    if i >= 0:
        return 1
    if j >= 0:
        return -1
    return 0


def key_cmp(m1, m2):
    k1, k2 = MONOMIAL_KEY(m1), MONOMIAL_KEY(m2)
    return (k1 > k2) - (k1 < k2)


def test_monomial_order_is_graded():
    lo = monomial([(C11, 1)])
    hi = monomial([(B11, 1), (B12, 1)])
    for cmp in (m_cmp, key_cmp):
        assert cmp(hi, lo) > 0  # degree 2 beats degree 1
        assert cmp(lo, lo) == 0


def test_monomial_order_lex_tiebreak():
    # same degree: the most significant variable decides; c-vars beat b-vars
    for cmp in (m_cmp, key_cmp):
        assert cmp(monomial([(C11, 1)]), monomial([(B11, 1)])) > 0
        assert cmp(monomial([(B12, 1)]), monomial([(B11, 1)])) > 0


def test_exact_div_simple():
    p = (P(B11) + P(B12)) * (P(B11) - P(B12))
    q = exact_div(p, P(B11) + P(B12))
    assert q == P(B11) - P(B12)


def test_exact_div_inexact_returns_none():
    assert exact_div(P(B11) * P(B11) + Poly.const(1), P(B12)) is None


def test_gcd_of_coprime_is_one():
    assert poly_gcd(P(B11) + Poly.const(1), P(B12)) == Poly.const(1)


def test_gcd_common_factor():
    common = P(B11) + P(B12)
    left = common * (P(B11) + Poly.const(2))
    right = common * P(B12)
    g = poly_gcd(left, right)
    assert exact_div(left, g) is not None
    assert exact_div(right, g) is not None
    assert g == common


def test_gcd_with_rational_coefficients():
    common = P(B11).scale(Fraction(1, 2)) + Poly.const(Fraction(3, 4))
    g = poly_gcd(common * P(B12), common * P(B11))
    # primitive with positive leading coefficient: 2*b11 + 3
    assert g == P(B11).scale(2) + Poly.const(3)


def _random_poly(rng, vars_, max_terms=4, max_deg=2):
    p = Poly()
    for _ in range(rng.randint(1, max_terms)):
        m = {}
        for _ in range(rng.randint(0, max_deg)):
            v = rng.choice(vars_)
            m[v] = m.get(v, 0) + 1
        p = p + Poly({monomial(m.items()): Fraction(rng.randint(-5, 5), rng.randint(1, 3))})
    return p


@pytest.mark.parametrize("seed", range(8))
def test_gcd_divides_both_and_product_roundtrips(seed):
    rng = random.Random(seed)
    vars_ = [B11, B12, C11]
    a = _random_poly(rng, vars_)
    b = _random_poly(rng, vars_)
    common = _random_poly(rng, vars_, max_terms=2)
    left, right = a * common, b * common
    if left.is_zero() or right.is_zero():
        return
    g = poly_gcd(left, right)
    qa, qb = exact_div(left, g), exact_div(right, g)
    assert qa is not None and qb is not None
    assert qa * g == left and qb * g == right
    if not common.is_zero() and not common.is_const():
        # the common factor must divide the gcd
        assert exact_div(g, poly_gcd(g, common)) is not None
        assert poly_gcd(g, common) != Poly.const(1)


# --- fast paths against the paths they replace --------------------------

B13, B21, B22, C21 = var_b(1, 3), var_b(2, 1), var_b(2, 2), var_c(2, 1)
ALL_VARS = [B11, B12, B13, B21, B22, C11, C21]
E1 = P(B11) + P(B12) + P(B13)
E2 = P(B21) + P(B22)


@pytest.mark.parametrize("seed", range(5))
def test_monomial_key_orders_like_m_cmp(seed):
    rng = random.Random(seed)
    ms = [
        monomial((rng.choice(ALL_VARS), rng.randint(1, 3)) for _ in range(rng.randint(0, 4)))
        for _ in range(60)
    ]
    for m1 in ms:
        for m2 in ms:
            assert key_cmp(m1, m2) == m_cmp(m1, m2), (m1, m2)


def _known_part(rng):
    """A product of generator powers and e_k powers, the shape of every
    tower denominator."""
    out = Poly.const(1)
    for v in (B11, B13, B21):
        out = out * P(v) ** rng.randint(0, 2)
    return out * E1 ** rng.randint(0, 2) * E2 ** rng.randint(0, 1)


def _cofactor(rng, **kwargs):
    p = _random_poly(rng, ALL_VARS, **kwargs)
    return p if p else Poly.const(1)


def _structured_pair(rng):
    common = _known_part(rng) * _cofactor(rng, max_terms=2, max_deg=1)
    left = common * _known_part(rng) * _cofactor(rng, max_terms=3)
    right = common * _known_part(rng) * _cofactor(rng, max_terms=3)
    return left, right


def _to_sympy(p, sympy):
    syms = {v: sympy.Symbol(f"{v[0]}_{v[1]}_{v[2]}") for v in ALL_VARS}
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= syms[v] ** e
        total += term
    return total, [syms[v] for v in ALL_VARS]


@pytest.mark.parametrize("seed", range(12))
def test_modular_test_never_refuses_a_divisor(seed):
    rng = random.Random(seed)
    for s_vars, s in (((B11, B12, B13), E1), ((B21, B22), E2), ((B11, B13), P(B11) + P(B13))):
        p = _known_part(rng) * _cofactor(rng, max_terms=3)
        assert _may_divide(s_vars, p * s)
        if not _may_divide(s_vars, p):
            assert exact_div(p, s) is None


@pytest.mark.parametrize("seed", range(12))
def test_stripped_gcd_is_the_prs_gcd_and_sympy_gcd(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    left, right = _structured_pair(rng)
    g = poly_gcd(left, right)
    # same normal form as the general algorithm run on the raw inputs
    assert g == _make_primitive(_prs_gcd(left, right))
    # an associate of sympy's gcd
    sg = sympy.gcd(_to_sympy(left, sympy)[0], _to_sympy(right, sympy)[0])
    ratio = sympy.cancel(_to_sympy(g, sympy)[0] / sg)
    assert ratio.is_Rational and ratio != 0


@pytest.mark.parametrize("seed", range(12))
def test_exact_div_inverts_mul_and_agrees_with_sympy_div(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    p = _known_part(rng) * _random_poly(rng, ALL_VARS)
    q = _known_part(rng) * _cofactor(rng, max_terms=3)
    assert exact_div(p * q, q) == p
    for num in (p * q, p, p + _random_poly(rng, ALL_VARS, max_terms=2), p * q + P(B22)):
        sp, gens = _to_sympy(num, sympy)
        sq, _ = _to_sympy(q, sympy)
        quotient, remainder = sympy.div(sp, sq, *gens)
        got = exact_div(num, q)
        if remainder != 0:
            assert got is None
        else:
            assert got is not None and sympy.expand(_to_sympy(got, sympy)[0] - quotient) == 0
