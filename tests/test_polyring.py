"""Engine-level tests: monomial order, exact division, gcd."""

import json
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice

import pytest
from _support import P, run_python, sympy_symbol, to_sympy

from deltatower import polyring
from deltatower.elements import format_poly
from deltatower.errors import BudgetExceeded
from deltatower.polyring import (
    MAX_EXPONENT,
    MONOMIAL_KEY,
    Poly,
    _PRIMES,
    _make_primitive,
    _monomial_content,
    _normal,
    _points,
    _slot,
    cancel,
    exact_div,
    m_divides,
    m_pairs,
    monomial,
    poly_gcd,
    var_b,
    var_c,
    var_name,
)

B11 = var_b(1, 1)
B12 = var_b(1, 2)
C11 = var_c(1, 1)


def m_cmp(m1, m2):
    """The graded lex order spelled out: degree first, then the most
    significant variable; the reference that MONOMIAL_KEY must match."""
    d1, d2 = (sum(e for _, e in m_pairs(m)) for m in (m1, m2))
    if d1 != d2:
        return -1 if d1 < d2 else 1
    m1, m2 = m_pairs(m1), m_pairs(m2)
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


def test_normal_keeps_a_fraction_and_makes_the_rest_canonical():
    q = Fraction(3, 7)
    assert _normal(q) is q  # already in lowest terms: no copy
    for c, want in [(True, 1), (False, 0), (2.0, 2), (2.5, Fraction(5, 2)), (Fraction(6, 3), 2), (7, 7)]:
        got = _normal(c)
        assert got == want and type(got) is type(want), c
    terms = Poly({monomial([(B11, 1)]): q}).terms
    assert next(iter(terms.values())) is q


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


@pytest.mark.parametrize("seed", range(12))
def test_stripped_gcd_is_the_prs_gcd_and_sympy_gcd(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    left, right = _structured_pair(rng)
    # known factors on both sides, as in tower denominators: the gcd is an
    # associate of sympy's (the name is kept so that the test ids stay)
    g = poly_gcd(left, right)
    sg = sympy.gcd(to_sympy(left), to_sympy(right))
    ratio = sympy.cancel(to_sympy(g) / sg)
    assert ratio.is_Rational and ratio != 0


def test_gcd_skips_the_content_of_the_higher_degree_argument():
    # the pair of "x - 3/R" for the sum x below, coprime: one constant image
    # proves it, so no content of the 66-term numerator is ever formed
    sympy = pytest.importorskip("sympy")
    residue = E1 + P(C11)
    x = (P(B11) + P(B12)) * residue - (P(B11) + P(B13)) ** 15
    left = x * residue - Poly.const(3)
    assert len(left.terms) == 66
    g = poly_gcd(left, residue)
    assert g == Poly.const(1)
    ratio = sympy.cancel(to_sympy(g) / sympy.gcd(to_sympy(left), to_sympy(residue)))
    assert ratio.is_Rational and ratio != 0


@pytest.mark.parametrize("seed", range(12))
def test_exact_div_inverts_mul_and_agrees_with_sympy_div(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    p = _known_part(rng) * _random_poly(rng, ALL_VARS)
    q = _known_part(rng) * _cofactor(rng, max_terms=3)
    assert exact_div(p * q, q) == p
    gens = [sympy_symbol(v) for v in ALL_VARS]
    for num in (p * q, p, p + _random_poly(rng, ALL_VARS, max_terms=2), p * q + P(B22)):
        quotient, remainder = sympy.div(to_sympy(num), to_sympy(q), *gens)
        got = exact_div(num, q)
        if remainder != 0:
            assert got is None
        else:
            assert got is not None and sympy.expand(to_sympy(got) - quotient) == 0


# --- packed monomials: the field guard and the bit tricks ---------------


def test_monomial_refuses_an_exponent_past_the_field():
    assert m_pairs(monomial([(B11, MAX_EXPONENT)])) == ((B11, MAX_EXPONENT),)
    for pairs in ([(B11, MAX_EXPONENT + 1)], [(B11, MAX_EXPONENT), (B11, 1)]):
        with pytest.raises(BudgetExceeded):
            monomial(pairs)


def test_products_refuse_an_exponent_past_the_field():
    top = Poly({monomial([(B11, MAX_EXPONENT)]): 1})
    # at the limit nothing carries into the neighbouring fields
    assert m_pairs(next(iter((top * P(B12)).terms))) == ((B11, MAX_EXPONENT), (B12, 1))
    assert P(B11) ** MAX_EXPONENT == top
    refused = [
        lambda: (P(B12) + top) * (P(C11) + P(B11)),
        lambda: P(B11) ** (MAX_EXPONENT + 1),
        lambda: (P(B12) + top).mul_term(monomial([(B11, 1)]), 1),
        # the remainder term b11 * b11^MAX of the first division step
        lambda: exact_div(top * P(C11), P(C11) + P(B11)),
    ]
    for op in refused:
        with pytest.raises(BudgetExceeded):
            op()


@pytest.mark.parametrize("seed", range(5))
def test_packed_divisibility_and_content_match_the_exponent_maps(seed):
    rng = random.Random(seed)
    exponents = (0, 1, 2, MAX_EXPONENT - 1, MAX_EXPONENT)

    def exps():
        return {v: rng.choice(exponents) for v in rng.sample(ALL_VARS, 4)}

    for _ in range(200):
        a, b = exps(), exps()
        ma, mb = monomial(a.items()), monomial(b.items())
        divides = all(b.get(v, 0) >= e for v, e in a.items())
        assert m_divides(ma, mb) == divides
        if divides:
            assert mb - ma == monomial((v, b.get(v, 0) - a.get(v, 0)) for v in ALL_VARS)
        low = monomial((v, min(a.get(v, 0), b.get(v, 0))) for v in ALL_VARS)
        assert _monomial_content([mb], ma) == low
        assert sum(e for _, e in m_pairs(ma)) == sum(a.values())


def _mixed_poly(rng, max_terms=4):
    """Integral coefficients as ints, the rest as Fractions."""
    p = Poly()
    for _ in range(rng.randint(1, max_terms)):
        m = monomial((rng.choice(ALL_VARS), rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))
        c = rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(2, 4))])
        p = p + Poly({m: c})
    return p if p else Poly.const(3)


def _grlex_terms(expr, sympy):
    """sympy's terms of expr as (pairs, coefficient), in its own graded lex
    order with the generators from the most significant variable down."""
    order = sorted(ALL_VARS, reverse=True)
    return [
        (tuple((v, e) for v, e in zip(order, exps) if e), Fraction(int(c.p), int(c.q)))
        for exps, c in sympy.Poly(expr, *map(sympy_symbol, order)).terms(order="grlex")
    ]


def _printed(terms):
    """The print grammar of format_poly, restated: b-factors last."""
    out = []
    for i, (pairs, c) in enumerate(terms):
        factors = [str(abs(c))] if abs(c) != 1 or not pairs else []
        for v, e in sorted(pairs, key=lambda t: (t[0][0] == "b", t[0])):
            factors.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + "*".join(factors))
    return "".join(out)


@pytest.mark.parametrize("seed", range(10))
def test_mixed_int_and_fraction_coefficients_agree_with_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    a, b, common = _mixed_poly(rng), _mixed_poly(rng), _mixed_poly(rng, max_terms=2)
    sa, sb = to_sympy(a), to_sympy(b)
    for got, want in ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb)):
        assert sympy.expand(to_sympy(got) - want) == 0
        if got:
            terms = _grlex_terms(want, sympy)
            assert got.lead() == (monomial(terms[0][0]), terms[0][1])
            assert format_poly(got) == _printed(terms)
    quotient = exact_div(a * b, b)
    assert quotient == a
    assert all(type(c) is int or c.denominator != 1 for c in quotient.terms.values())
    g = poly_gcd(a * common, b * common)
    ratio = sympy.cancel(to_sympy(g) / sympy.gcd(sa * to_sympy(common), sb * to_sympy(common)))
    assert ratio.is_Rational and ratio != 0
    assert all(type(c) is int for c in g.terms.values())


# --- a variable registered in the middle of a run -------------------------

# Builds polynomials in b[2][.] and c[2][.], then registers b[1][1], which
# sorts before all of them and so moves every field's key shift ("mid");
# "fresh" registers b[1][1] first.  Prints, as JSON, the monomials of every
# polynomial in MONOMIAL_KEY order, each polynomial's terms and lead, the
# exact divisions of all products and the printed forms.
MID_RUN_SCRIPT = """
import json, sys
from deltatower import polyring
from deltatower.elements import Element
from deltatower.polyring import MONOMIAL_KEY, Poly, exact_div, m_pairs

def P(kind, level, index):
    return Poly.variable((kind, level, index))

if sys.argv[1] == "fresh":
    P("b", 1, 1)
b21, b22, c21, c22 = P("b", 2, 1), P("b", 2, 2), P("c", 2, 1), P("c", 2, 2)
p = (b21 + c21 * b22 + Poly.const(2)) ** 2
q = c22 * b22 - b21 * b21.scale(3) + c21
early = [p, q, p * q]
if sys.argv[1] == "mid" and ("b", 1, 1) in polyring._SLOTS:
    raise SystemExit("b[1][1] was registered early")
b11 = P("b", 1, 1)
if min(polyring._SLOT_VARS) != ("b", 1, 1):
    raise SystemExit("b[1][1] does not sort first")
polys = early + [b11 * p + q, (b11 + c22) ** 2 * q - b11]
monomials = {m for x in polys for m in x.terms}
print(json.dumps({
    "order": [m_pairs(m) for m in sorted(monomials, key=MONOMIAL_KEY)],
    "leads": [(m_pairs(x.lead()[0]), [m_pairs(m) for m in x.terms]) for x in polys],
    "divides": [exact_div(x * y, y) == x for x in polys for y in polys],
    "printed": [str(x) for x in polys] + [str(Element(x, y)) for x in polys for y in polys],
}))
"""


def _decode(pairs):
    return monomial((tuple(v), e) for v, e in pairs)


def test_keys_after_a_registration_in_the_middle_of_a_run():
    runs = {}
    for mode in ("mid", "fresh"):
        runs[mode] = json.loads(run_python(["-c", MID_RUN_SCRIPT, mode], timeout=120).stdout)
    for run in runs.values():
        order = [_decode(pairs) for pairs in run["order"]]
        assert all(m_cmp(a, b) < 0 for a, b in zip(order, order[1:]))
        for lead, terms in run["leads"]:
            assert _decode(lead) == max(map(_decode, terms), key=cmp_to_key(m_cmp))
        assert all(run["divides"])
    assert runs["mid"] == runs["fresh"]


# --- the modular gcd: images, certificates and unlucky points -------------

B13 = var_b(1, 3)


def test_a_sum_split_off_one_side_is_tried_on_the_other():
    # b[1][1] + b[1][3] is a level sum of p only once p's monomial content
    # b[1][2] is removed: the known-factor split that once ran before the
    # general gcd returned 1 here
    common = P(B11) + P(B13)
    p = (common * P(B12)).scale(Fraction(3, 2))
    q = common * (P(B12) * P(C11) - Poly.const(4))
    assert poly_gcd(p, q) == common == poly_gcd(q, p)


def test_images_certify_a_coprime_pair_and_skip_one_variable():
    left, right = P(B11) * P(B12) + Poly.const(1), P(B11) + P(B12) * P(C11)
    assert poly_gcd(left, right) == Poly.const(1)
    # one variable between them: the univariate image is Euclid's gcd
    assert poly_gcd(P(B11) + Poly.const(1), P(B11) - Poly.const(1)) == Poly.const(1)
    assert poly_gcd(left * right, right) == right


def test_a_factor_whose_lead_vanishes_at_the_point_is_not_certified_away():
    # b[1][2] has the higher degree, so it is evaluated; g's leading
    # coefficient in b[1][1], gamma = b[1][2] - k, vanishes at its first
    # point k, where the primitive part of p has the constant image 1: only
    # the skip of that point keeps the gcd from being certified 1
    k = next(_points(_slot(B12), _PRIMES[0]))
    g = (P(B12) - Poly.const(k)) * P(B11) + Poly.const(1)
    p = g * (P(B12) * P(B12) + Poly.const(3))
    q = g * (P(B12) * P(B12) + P(B11) + Poly.const(5))
    assert poly_gcd(p, q) == g


def test_a_prime_that_divides_gamma_is_skipped():
    # gamma, the gcd of the leading coefficients, is the first prime itself:
    # mod that prime g loses its leading term and the images are coprime
    g = P(B11).scale(_PRIMES[0]) + Poly.const(1)
    left, right = P(B12) + Poly.const(1), P(B12) + Poly.const(2)
    assert cancel(g * left, g * right) == (g, left, right)


def test_an_image_of_higher_degree_is_skipped(monkeypatch):
    # b[1][2] has the higher degree, so it is evaluated; at its second point
    # x1 both cofactors become b[1][1] and the image gcd gains that factor.
    # One prime and 16 points: a gcd that interpolated that image would
    # never settle, and here ends in BudgetExceeded
    u, v = P(B11), P(B12)
    x1 = list(islice(_points(_slot(B12), _PRIMES[0]), 2))[1]
    g = v * v + u + Poly.const(1)
    a, b = g * (u + v - Poly.const(x1)), g * (u - v + Poly.const(x1))
    monkeypatch.setattr(polyring, "_PRIMES", _PRIMES[:1])
    monkeypatch.setattr(polyring, "_points", lambda slot, prime: islice(_points(slot, prime), 16))
    assert poly_gcd(a, b) == g


pytest.importorskip("hypothesis")

from _support import rationals  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

GCD_VARS = [B11, B12, B13, C11]
gcd_polys = st.dictionaries(
    st.lists(st.sampled_from(GCD_VARS), max_size=3).map(lambda vs: monomial((v, 1) for v in vs)),
    rationals,
    max_size=4,
).map(Poly)


@settings(max_examples=100)
@given(a=gcd_polys, b=gcd_polys, common=gcd_polys, planted=st.booleans())
def test_gcd_agrees_with_sympy_on_planted_and_coprime_pairs(a, b, common, planted):
    sympy = pytest.importorskip("sympy")
    if planted:
        a, b = a * common, b * common
    g, a_g, b_g = cancel(a, b)
    assert g == poly_gcd(a, b) == _make_primitive(g)
    if g:
        assert g * a_g == a and g * b_g == b
    if a and b:
        ratio = sympy.cancel(to_sympy(g) / sympy.gcd(to_sympy(a), to_sympy(b)))
        assert ratio.is_number and ratio != 0
