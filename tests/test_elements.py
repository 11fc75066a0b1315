"""Element canonicalisation: Henrici's addition and multiplication and the
gcd quotient rule against the literal formulas they replace, and
canonical strings against sympy.cancel (test-only)."""

import random
from fractions import Fraction

import pytest
from _support import BUDGET_UTYPES, sympy_symbol, to_sympy, utype_id

from deltatower import elements
from deltatower.elements import ONE_ELEMENT, ZERO_ELEMENT, Element, format_element
from deltatower.polyring import MONOMIAL_KEY, ONE, Poly, monomial, var_b, var_c
from deltatower.tower import _derive_poly, build_spec, derive, random_element

SPEC = build_spec((3, 2))
GENS = [var_b(1, j) for j in (1, 2, 3)] + [var_b(2, j) for j in (1, 2)]
CONSTS = [var_c(1, j) for j in (1, 2, 3)] + [var_c(2, j) for j in (1, 2)]
E1 = sum((Poly.variable(v) for v in GENS[:3]), Poly())
E2 = Poly.variable(GENS[3]) + Poly.variable(GENS[4])


def _random_poly(rng, max_terms, max_deg):
    p = Poly()
    for _ in range(rng.randint(1, max_terms)):
        pairs = [(rng.choice(GENS + CONSTS), 1) for _ in range(rng.randint(0, max_deg))]
        p = p + Poly({monomial(pairs): Fraction(rng.randint(1, 5), rng.randint(1, 3))})
    return p if p else Poly.const(1)


def _random_element(rng):
    """A random numerator over a tower-shaped denominator (generator and
    e_k powers, sometimes times a random polynomial)."""
    den = Poly.variable(rng.choice(GENS)) ** rng.randint(0, 2)
    den = den * E1 ** rng.randint(0, 2) * E2 ** rng.randint(0, 1)
    if rng.random() < 0.3:
        den = den * _random_poly(rng, 2, 1)
    return Element(_random_poly(rng, 3, 2), den)


@pytest.mark.parametrize("seed", range(10))
def test_henrici_arithmetic_matches_the_product_formulas(seed):
    rng = random.Random(seed)
    x, y = _random_element(rng), _random_element(rng)
    assert x + y == Element(x.num * y.den + y.num * x.den, x.den * y.den)
    assert x - y == Element(x.num * y.den - y.num * x.den, x.den * y.den)
    assert x * y == Element(x.num * y.num, x.den * y.den)
    assert x / y == Element(x.num * y.den, x.den * y.num)


@pytest.mark.parametrize("seed", range(10))
def test_gcd_quotient_rule_matches_the_literal_one(seed):
    rng = random.Random(seed)
    x = _random_element(rng)
    dnum, dden = _derive_poly(x.num, SPEC), _derive_poly(x.den, SPEC)
    literal = Element(dnum * x.den - x.num * dden, x.den * x.den)
    assert derive(x, SPEC) == literal


@pytest.mark.parametrize("utype", BUDGET_UTYPES, ids=utype_id)
def test_is_constant_matches_the_variable_scan(utype):
    # the one-mask test against the literal scan of every symbol
    spec = build_spec(utype)
    rng = random.Random(f"constant:{utype}")
    symbols = [spec.symbol(i, j) for i, n in enumerate(utype, 1) for j in range(1, n + 1)]
    gens = [g for i in range(1, len(utype) + 1) for g in spec.generators(i)]
    xs = [ZERO_ELEMENT, ONE_ELEMENT, Element.from_rational(Fraction(-3, 7)), spec.e(len(utype))]
    for _ in range(20):
        xs.append(random_element(rng, spec, allow_denominator=rng.random() < 0.5))
        c = rng.choice(symbols) * rng.randint(-3, 3) + rng.choice(symbols) / rng.choice(symbols)
        xs += [c, c * rng.choice(symbols) - 1, c / rng.choice(gens), rng.choice(gens) / (c + 1)]
    verdicts = [x.is_constant() for x in xs]
    assert verdicts == [all(v[0] != "b" for v in x.variables()) for x in xs]
    assert True in verdicts and False in verdicts


def test_quotient_rule_denominator_of_a_power():
    # delta(1/e_1^3) = -3 delta(e_1)/e_1^4: the denominator is e_1^4, not e_1^6
    x = Element(Poly.const(1), E1**3)
    assert derive(x, SPEC).den == E1**4


# --- canonical strings against sympy.cancel ------------------------------


def _from_sympy(expr, sympy):
    """Print sympy's cancelled form the way Element prints: numerator and
    denominator scaled so the denominator's leading coefficient is 1."""
    order = GENS + CONSTS
    num, den = sympy.fraction(sympy.cancel(expr))

    def poly(e):
        terms = sympy.Poly(e, *map(sympy_symbol, order)).terms()
        return Poly(
            {
                monomial(zip(order, exps)): Fraction(int(c.p), int(c.q))
                for exps, c in terms
            }
        )

    n, d = poly(num), poly(den)
    lc = d.terms[max(d.terms, key=MONOMIAL_KEY)]
    n, d = n.scale(1 / lc), d.scale(1 / lc)
    return format_element(Element(n, d))


def _sympy_delta(expr, sympy):
    """The tower derivation by the chain rule:
    delta b[i][j] = c[i][j] b[i][j] prod_{k<i} e_k."""
    e1 = to_sympy(E1)
    out = sympy.Integer(0)
    for kind, i, j in GENS:
        twist = e1 if i == 2 else 1
        b = sympy_symbol((kind, i, j))
        out += sympy.diff(expr, b) * (sympy_symbol(("c", i, j)) * b * twist)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_canonical_strings_match_sympy_cancel(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    x, y, z = (_random_element(rng) for _ in range(3))
    # w and v make the sum and the product cancel against x: x + w = z - y
    # and x * v = z shares factors across numerators and denominators
    w, v = z - y - x, z / x

    def s(e):
        return to_sympy(e.num) / to_sympy(e.den)

    sx, sy, sw, sv = s(x), s(y), s(w), s(v)
    cases = [
        (x + y, sx + sy),
        (x - y, sx - sy),
        (x * y, sx * sy),
        (x / y, sx / sy),
        (x + w, sx + sw),
        (x * v, sx * sv),
        (v / x, sv / sx),
        (x**3, sx**3),
        (x**-2, sx**-2),
        (derive(x, SPEC), _sympy_delta(sx, sympy)),
    ]
    for ours, theirs in cases:
        assert str(ours) == _from_sympy(theirs, sympy)


def test_hash_is_the_pair_hash_computed_once(monkeypatch):
    import copy
    import pickle

    rng = random.Random("hash")
    for _ in range(20):
        x = _random_element(rng)
        twin = Element(x.num * E1, x.den * E1)  # equal, built another way
        assert twin == x and hash(twin) == hash(x) == hash((x.num, x.den))
        for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert other == x and hash(other) == hash(x) and str(other) == str(x)
    calls = []
    real = Poly.__hash__
    monkeypatch.setattr(Poly, "__hash__", lambda p: calls.append(p) or real(p))
    y = _random_element(rng)
    first = hash(y)
    assert len(calls) == 2
    assert hash(y) == first and {y: 1}[y] == 1 and len(calls) == 2


def test_text_is_formatted_once_and_kept(monkeypatch):
    import copy
    import pickle

    calls = []
    real = elements.format_poly
    monkeypatch.setattr(elements, "format_poly", lambda p: calls.append(p) or real(p))
    rng = random.Random("text")
    for _ in range(20):
        x = _random_element(rng)
        calls.clear()
        text = str(x)
        # the numerator, and the denominator unless it is 1
        assert len(calls) == (1 if x.den == ONE else 2)
        assert str(x) == text and repr(x) == f"Element({x})" == f"Element({text})"
        assert len(calls) == (1 if x.den == ONE else 2)
        for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert str(other) == text and repr(other) == repr(x)
