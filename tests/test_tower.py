"""Derivations on the tower: eigen-equations, Leibniz, logd, iterates."""

import json
import random
import re
from fractions import Fraction

import pytest
from _support import BUDGET_UTYPES, literal_p, utype_id

from deltatower import (
    DomainViolation,
    LevelOutOfRange,
    LogOfZero,
    ParseError,
    TowerSpec,
    build_spec,
    d_twist,
    derive,
    logd,
    logd_iter,
    parse_element,
)
from deltatower import cli, elements, polyring, tower
from deltatower.elements import ONE_ELEMENT, ZERO_ELEMENT, Element
from deltatower.polyring import Poly, m_pairs, monomial
from deltatower.relations import certify_independence
from deltatower.series import SeriesContext, delta_consistency_residual, eval_series
from deltatower.tower import _derive_poly, random_element

SPEC = build_spec((2, 2, 1))
B11 = SPEC.generator(1, 1)
B12 = SPEC.generator(1, 2)
B21 = SPEC.generator(2, 1)
C11 = SPEC.symbol(1, 1)
C12 = SPEC.symbol(1, 2)
C21 = SPEC.symbol(2, 1)


class TestDerive:
    def test_level_one_eigen_equation(self):
        assert derive(B11, SPEC) == C11 * B11

    def test_level_two_unwinds_the_twist(self):
        assert derive(B21, SPEC) == C21 * B21 * (B11 + B12)

    def test_constants_are_killed(self):
        assert derive(C11, SPEC).is_zero()
        assert derive(parse_element("u[1][1]"), SPEC).is_zero()

    @pytest.mark.parametrize("seed", range(10))
    def test_leibniz_rule(self, seed):
        rng = random.Random(seed)
        x, y = random_element(rng, SPEC), random_element(rng, SPEC)
        lhs = derive(x * y, SPEC)
        rhs = x * derive(y, SPEC) + y * derive(x, SPEC)
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(5))
    def test_quotient_rule(self, seed):
        rng = random.Random(seed)
        x, y = random_element(rng, SPEC), random_element(rng, SPEC)
        if y.is_zero():
            return
        lhs = derive(x / y, SPEC)
        rhs = (derive(x, SPEC) * y - x * derive(y, SPEC)) / (y * y)
        assert lhs == rhs

    def test_additive(self):
        rng = random.Random(3)
        x, y = random_element(rng, SPEC), random_element(rng, SPEC)
        assert derive(x + y, SPEC) == derive(x, SPEC) + derive(y, SPEC)


def _derive_poly_literal(p, spec):
    """delta read off its definition: delta(b[i][j]) = c[i][j] b[i][j] P_i
    times the partial derivative, one Poly sum per (term, generator)."""
    out = Poly()
    for m, coeff in p.terms.items():
        for v, e in m_pairs(m):
            kind, i, j = v
            if kind != "b":
                continue
            dv = Poly.variable(("c", i, j)) * Poly.variable(v) * literal_p(spec, i)
            out = out + dv.mul_term(m - monomial(((v, 1),)), coeff * e)
    return out


def _random_poly(rng, spec):
    """Up to eight terms in the tower's b, c and u variables, exponents up
    to 3, int and Fraction coefficients; then, at every level of rank >= 2,
    k*b1*b2*c2 - k*b1*b2*c1, whose images under E_i meet on b1*b2*c1*c2 and
    cancel there."""
    variables = [
        (kind, i, j) for i, n in enumerate(spec.ranks, 1) for j in range(1, n + 1) for kind in "bcu"
    ]
    terms = []
    for _ in range(rng.randint(0, 8)):
        pairs = [(rng.choice(variables), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        coeff = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        terms.append((monomial(pairs), coeff))
    for i, n in enumerate(spec.ranks, 1):
        if n >= 2:
            k = rng.randint(1, 4)
            b1b2 = [(("b", i, 1), 1), (("b", i, 2), 1)]
            terms.append((monomial(b1b2 + [(("c", i, 2), 1)]), k))
            terms.append((monomial(b1b2 + [(("c", i, 1), 1)]), -k))
    p = Poly()
    for m, coeff in terms:
        p = p + Poly({m: coeff})
    return p


@pytest.mark.parametrize("utype", BUDGET_UTYPES, ids=utype_id)
def test_derive_poly_is_the_literal_derivation(utype):
    spec = build_spec(utype)
    rng = random.Random(utype_id(utype))
    for _ in range(12):
        p = _random_poly(rng, spec)
        got = _derive_poly(p, spec)
        assert got == _derive_poly_literal(p, spec), p
        assert 0 not in got.terms.values()


@pytest.mark.parametrize("utype", BUDGET_UTYPES, ids=utype_id)
def test_twist_is_the_reciprocal_of_the_literal_product(utype):
    spec = build_spec(utype)
    for i in range(1, len(utype) + 1):
        p = literal_p(spec, i)
        twist, literal = spec.twist(i), ONE_ELEMENT / Element(p)
        assert (twist.mono, twist.sums, twist.res) == (literal.mono, literal.sums, literal.res)
        assert list(twist.sums) == list(literal.sums) and str(twist) == str(literal)
        # _derive_poly multiplies by the expanded twist: term order decides the bits
        assert list(twist.den.terms.items()) == list(p.terms.items())
        assert spec.twist(i) is twist


def test_twist_is_built_with_no_division(monkeypatch):
    calls = []
    for module in (polyring, elements):
        real = module.exact_div
        monkeypatch.setattr(module, "exact_div", lambda p, q, real=real: calls.append(q) or real(p, q))
    spec = build_spec((2, 1, 3, 2))
    twists = [str(spec.twist(i)) for i in range(1, 5)]
    assert twists[:3] == ["1", "1/(b[1][2] + b[1][1])", "1/(b[1][2]*b[2][1] + b[1][1]*b[2][1])"]
    assert len(spec.twist(4).den.terms) == 6 and calls == []


def test_euler_images_that_meet_cancel():
    # b1*b2*(c2 - c1) at level 2: both images land on b1*b2*c1*c2 and cancel
    b1, b2 = Poly.variable(("b", 2, 1)), Poly.variable(("b", 2, 2))
    c1, c2 = Poly.variable(("c", 2, 1)), Poly.variable(("c", 2, 2))
    p = b1 * b2 * (c2 - c1)
    expected = b1 * b2 * (c2 * c2 - c1 * c1) * literal_p(SPEC, 2)
    assert _derive_poly(p, SPEC) == expected == _derive_poly_literal(p, SPEC)


class TestDTwist:
    def test_generators_are_eigenvectors(self):
        assert d_twist(B21, 2, SPEC) == C21 * B21
        assert d_twist(SPEC.generator(3, 1), 3, SPEC) == SPEC.symbol(3, 1) * SPEC.generator(3, 1)

    def test_level_one_is_the_plain_derivation(self):
        rng = random.Random(1)
        x = random_element(rng, SPEC)
        assert d_twist(x, 1, SPEC) == derive(x, SPEC)

    def test_kills_constants(self):
        for i in (1, 2, 3):
            assert d_twist(C11, i, SPEC).is_zero()

    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_derivation_is_a_derivation(self, seed):
        rng = random.Random(seed)
        i = rng.randint(1, 3)
        x, y = random_element(rng, SPEC), random_element(rng, SPEC)
        lhs = d_twist(x * y, i, SPEC)
        rhs = x * d_twist(y, i, SPEC) + y * d_twist(x, i, SPEC)
        assert lhs == rhs

    def test_level_out_of_range(self):
        # the level is checked before any lower level is looked at
        for i in (0, 4, 5):
            message = rf"^level {i} outside 1\.\.3$"
            with pytest.raises(LevelOutOfRange, match=message):
                d_twist(B11, i, SPEC)
            with pytest.raises(LevelOutOfRange, match=message):
                SPEC.twist(i)

    def test_no_new_constants_on_generator_monomials(self):
        # nonzero exponent vectors give nonzero log-derivatives
        rng = random.Random(7)
        for _ in range(20):
            m = B11 ** rng.randint(0, 2) * B12 ** rng.randint(0, 2) * B21 ** rng.randint(0, 2)
            if m == 1:
                continue
            i = rng.randint(1, 3)
            assert not d_twist(m, i, SPEC).is_zero()


class TestLogd:
    def test_products_become_sums(self):
        assert logd(B11 * B12, 1, SPEC) == C11 + C12

    def test_power_rule(self):
        assert logd(B11**5, 1, SPEC) == 5 * C11

    def test_quotients_become_differences(self):
        value = logd(B11 / B12, 1, SPEC)
        assert value == C11 - C12
        # re-check through the quotient rule: logd(x) + logd(y) = logd(x*y)
        assert value + logd(B12, 1, SPEC) == logd(B11, 1, SPEC)

    def test_level_two_eigenvalue(self):
        assert logd(B21, 2, SPEC) == C21

    def test_log_of_zero(self):
        with pytest.raises(LogOfZero):
            logd(ZERO_ELEMENT, 1, SPEC)

    @pytest.mark.parametrize("seed", range(6))
    def test_multiplicativity_where_defined(self, seed):
        rng = random.Random(seed)
        x, y = random_element(rng, SPEC), random_element(rng, SPEC)
        if x.is_zero() or y.is_zero():
            return
        i = rng.randint(1, 3)
        assert logd(x * y, i, SPEC) == logd(x, i, SPEC) + logd(y, i, SPEC)


class TestLogdIter:
    def test_single_application(self):
        assert logd_iter(B11, 1, SPEC) == C11

    def test_second_iterate_is_zero(self):
        # logd(b11) = c11, a nonzero constant, so the next step gives 0
        assert logd_iter(B11, 2, SPEC).is_zero()

    def test_third_iterate_leaves_the_domain(self):
        with pytest.raises(DomainViolation) as info:
            logd_iter(B11, 3, SPEC)
        assert info.value.index == 2

    def test_zero_input(self):
        with pytest.raises(DomainViolation) as info:
            logd_iter(ZERO_ELEMENT, 1, SPEC)
        assert info.value.index == 0


class TestTowerSpec:
    def test_e_is_the_generator_sum(self):
        assert SPEC.e(1) == B11 + B12
        assert SPEC.e(2) == B21 + SPEC.generator(2, 2)

    def test_json_roundtrip(self):
        spec = TowerSpec(ranks=(2, 1), assignments=(("c[1][1]", "2"), ("c[1][2]", "3.5")))
        again = TowerSpec.from_json(spec.to_json())
        assert again.ranks == spec.ranks
        assert again.assignments == spec.assignments
        assert again.to_json() == spec.to_json()

    @pytest.mark.parametrize(
        "key", ["C[1][1]", "c[1][3]", "c[2][2]", "c[3][1]", "b[1][1]", "c[01][1]", f"c[1][{'9' * 5000}]"]
    )
    def test_json_refuses_an_assignment_to_no_symbol_of_the_tower(self, key):
        # at ranks (2, 1) the symbols are c[1][1], c[1][2] and c[2][1]
        text = json.dumps({"ranks": [2, 1], "assignments": {"c[2][1]": "5", key: "7"}})
        with pytest.raises(ParseError, match=re.escape(repr(key))):
            TowerSpec.from_json(text)

    def test_json_rejects_inconsistent_ell(self):
        with pytest.raises(ValueError):
            TowerSpec.from_json('{"ell": 3, "ranks": [2, 1]}')

    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            build_spec((0, 1))
        with pytest.raises(ValueError):
            build_spec(())
        for ranks in ((1.7, 2), (True,)):  # not truncated to (1, 2) and (1,)
            with pytest.raises(ValueError):
                build_spec(ranks)

    def test_index_bounds(self):
        with pytest.raises(LevelOutOfRange):
            SPEC.generator(1, 3)
        with pytest.raises(LevelOutOfRange):
            SPEC.symbol(4, 1)
        with pytest.raises(LevelOutOfRange):
            SPEC.symbol(1, 3)

    def test_symbol_is_the_constant_element(self):
        assert SPEC.symbol(2, 1) == parse_element("c[2][1]")
        assert SPEC.symbol(2, 1).is_constant()

    def test_one_generator_element_per_spec(self):
        spec, fresh = build_spec((2, 3)), build_spec((2, 3))
        for i, n in enumerate(spec.ranks, 1):
            for j in range(1, n + 1):
                b = spec.generator(i, j)
                assert b is spec.generator(i, j) is spec.generators(i)[j - 1]
                assert b == Element.from_var(polyring.var_b(i, j)) == fresh.generator(i, j)
                assert b is not fresh.generator(i, j) and str(b) == f"b[{i}][{j}]"
        with pytest.raises(LevelOutOfRange):
            spec.generator(1, 3)
        assert ("generator", 1, 3) not in spec._caches


# the kinds of TowerSpec._caches keys; the TowerSpec docstring names each
SPEC_CACHE_KINDS = {"twist", "default", "terms", "point", "eigenvalues", "weights", "generator"}


def test_every_per_spec_cache_is_named(monkeypatch, capsys):
    # the spec that tower build --check builds and checks, then a
    # certificate with its replay, eval_series and the delta check on the same spec
    specs = []
    real = tower.build_spec
    monkeypatch.setattr(tower, "build_spec", lambda utype: specs.append(real(utype)) or specs[-1])
    assert cli.main(["tower", "build", "--utype", "2,1", "--check"]) == 0
    assert "RESULT PASS" in capsys.readouterr().out
    [spec] = specs
    trace = certify_independence(spec.generators(1), 3, spec)
    assert trace.replay(spec)
    ctx = SeriesContext.default(spec, order=12)
    x = parse_element("(b[1][1]*c[2][1] - b[2][1])/(b[1][1] + b[1][2])^2")
    eval_series(x, ctx, spec)
    assert delta_consistency_residual(x, ctx, spec) == 0.0
    assert {key[0] for key in spec._caches} == SPEC_CACHE_KINDS
    assert all(f'``("{kind}"' in TowerSpec.__doc__ for kind in SPEC_CACHE_KINDS)
