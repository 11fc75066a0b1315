"""The guards on mathematical identities raise RuntimeError, not assert, so
they also hold under ``python -O``.  Each test breaks one identity through
a monkeypatch and checks that its guard fires: a RuntimeError, or for the
gcd's checks, the move to the next prime."""

import pytest

from deltatower import operators, polyring, relations
from deltatower.elements import Element, ZERO_ELEMENT
from deltatower.polyring import Poly, var_b, var_c
from deltatower.relations import MonomialRelation, ReductionTrace, Verdict
from deltatower.tower import build_spec

SPEC = build_spec((2, 2))
B11, B12, C11 = (Poly.variable(v) for v in (var_b(1, 1), var_b(1, 2), var_c(1, 1)))
# Two polynomials whose gcd is b[1][1] + 2
LEFT = (B11 + Poly.const(2)) * (B11 + Poly.const(3))
RIGHT = (B11 + Poly.const(2)) * (B11 + C11)


def _first_image(monkeypatch, fake: Poly) -> list[int]:
    """Make the first gcd image, mod the first prime, the image of fake;
    return the list of primes the images are taken mod."""
    real, primes = polyring._gcd_mod, []

    def image(a, b, order, prime):
        primes.append(prime)
        return polyring._image(fake, prime) if len(primes) == 1 else real(a, b, order, prime)

    monkeypatch.setattr(polyring, "_gcd_mod", image)
    return primes


def test_poly_gcd_refuses_a_proper_divisor_of_the_gcd(monkeypatch):
    # b[1][1] + 2 divides both, but the cofactors share b[1][2] + 1, so the
    # certificate of their image gcd refuses it and the next prime decides
    common = (B11 + Poly.const(2)) * (B12 + Poly.const(1))
    primes = _first_image(monkeypatch, B11 + Poly.const(2))
    assert polyring.poly_gcd(common * (B11 + Poly.const(3)), common * (B11 + C11)) == common
    assert primes[0] != primes[-1] == polyring._PRIMES[1]


def test_poly_gcd_refuses_a_non_divisor(monkeypatch):
    # b[1][1] + 5 divides neither input: trial division refuses it
    primes = _first_image(monkeypatch, B11 + Poly.const(5))
    assert polyring.poly_gcd(LEFT, RIGHT) == B11 + Poly.const(2)
    assert primes[0] != primes[-1] == polyring._PRIMES[1]


def test_decompose_guards_the_eigen_equations(monkeypatch):
    monkeypatch.setattr(operators, "d_twist", lambda x, i, spec: x)
    with pytest.raises(RuntimeError, match="fails its eigen-equation"):
        operators.decompose(SPEC.e(1), 1, SPEC)


def test_decompose_guards_the_sum(monkeypatch):
    monkeypatch.setattr(operators.EigenDecomposition, "total", lambda self: ZERO_ELEMENT)
    with pytest.raises(RuntimeError, match="does not sum back"):
        operators.decompose(SPEC.e(1), 1, SPEC)


def test_invariant_monomial_guards_its_identity(monkeypatch):
    G = MonomialRelation(1, tuple(SPEC.generators(1)), {(1, 0): Element(C11), (0, 1): Element(C11)})
    real = relations.logd
    # shifting every logarithmic derivative by 1 keeps the eigenvalue
    # differences but breaks logd(h) = (r2 - r1).lambda
    monkeypatch.setattr(relations, "logd", lambda h, level, spec: real(h, level, spec) + 1)
    with pytest.raises(RuntimeError, match="fails its defining identity"):
        relations.invariant_monomial(G, (1, 0), (0, 1), SPEC)


def test_certify_independence_guards_the_verdict(monkeypatch):
    def found(generic, phis, spec):
        return ReductionTrace(generic, (), Verdict.INVARIANT_MONOMIAL_FOUND)

    monkeypatch.setattr(relations, "_run_reduction", found)
    with pytest.raises(RuntimeError, match="found a relation"):
        relations.certify_independence(SPEC.generators(1), 2, SPEC, level=1)
