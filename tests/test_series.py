"""The numerical oracle: series arithmetic and the element interpretation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from deltatower import (
    BudgetExceeded,
    NonInvertibleSeries,
    Series,
    TowerSpec,
    build_spec,
    derive,
    eval_series,
    logd,
    polyring,
    series,
)
from deltatower.elements import Element
from deltatower.errors import UnknownSymbol
from deltatower.polyring import Poly, m_pairs, monomial, var_b, var_c
from deltatower.series import SeriesContext, delta_consistency_residual, residual
from deltatower.textio import parse_element
from deltatower.tower import _derive_poly, random_element

SPEC = build_spec((2, 1))


class TestSeriesArithmetic:
    def test_mul_by_known_product(self):
        # exp(t)*exp(t) = exp(2t)
        e = Series([1 / math.factorial(k) for k in range(8)])
        prod = e * e
        expected = [2**k / math.factorial(k) for k in range(8)]
        assert np.allclose(prod.coeffs, expected, atol=1e-14)

    def test_div_inverts_mul(self):
        rng = random.Random(0)
        a = Series([rng.uniform(-1, 1) for _ in range(10)])
        b = Series([rng.uniform(0.5, 1.5)] + [rng.uniform(-1, 1) for _ in range(9)])
        assert np.allclose(((a * b) / b).coeffs, a.coeffs, atol=1e-10)

    def test_div_by_zero_constant_term(self):
        with pytest.raises(NonInvertibleSeries):
            Series([1.0, 0.0]) / Series([0.0, 1.0])

    def test_exp_of_t(self):
        s = Series.t(6).exp()
        assert np.allclose(s.coeffs, [1 / math.factorial(k) for k in range(6)])

    def test_exp_with_nonzero_constant_term(self):
        s = (Series.const(1.0, 6) + Series.t(6)).exp()
        assert np.allclose(s.coeffs, [math.e / math.factorial(k) for k in range(6)])

    def test_deriv_integ_are_inverse(self):
        rng = random.Random(1)
        a = Series([rng.uniform(-1, 1) for _ in range(9)])
        back = a.integ().deriv()
        assert np.allclose(back.coeffs, a.coeffs[: len(back)], atol=1e-14)

    def test_pow_negative(self):
        s = Series([2.0, 1.0, 0.5, 0.25])
        assert np.allclose((s**-2 * s * s).coeffs, [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_residual_is_inf_on_non_finite_coefficients(self, bad):
        finite = Series([1.0, 2.0, 3.0])
        broken = Series([1.0, bad, 3.0])
        assert residual(broken, finite) == math.inf
        assert residual(finite, broken) == math.inf
        assert residual(broken, broken) == math.inf


class TestEvalSeries:
    def test_level_one_generator_is_exp(self):
        ctx = SeriesContext.default(SPEC, order=4)  # c11 -> 2
        s = eval_series(SPEC.generator(1, 1), ctx, SPEC)
        assert np.allclose(s.coeffs, [1.0, 2.0, 2.0, 4.0 / 3.0])

    def test_logd_of_generator_is_constant_series(self):
        ctx = SeriesContext.default(SPEC, order=6)
        s = eval_series(logd(SPEC.generator(1, 1), 1, SPEC), ctx, SPEC)
        assert np.allclose(s.coeffs, [2.0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_level_two_satisfies_its_equation(self):
        # delta b21 = c21 * b21 * e1 numerically
        ctx = SeriesContext.default(SPEC, order=12)
        b21 = SPEC.generator(2, 1)
        lhs = eval_series(b21, ctx, SPEC).deriv()
        rhs = eval_series(derive(b21, SPEC), ctx, SPEC)
        assert residual(lhs, rhs) < 1e-9

    def test_spec_assignments_drive_the_default_context(self):
        from deltatower import TowerSpec

        spec = TowerSpec(ranks=(1,), assignments=(("c[1][1]", "3"),))
        ctx = SeriesContext.default(spec, order=4)
        s = eval_series(spec.generator(1, 1), ctx, spec)
        assert np.allclose(s.coeffs, [1.0, 3.0, 4.5, 4.5])  # exp(3t)

    def test_default_values_cycle_but_stay_distinct_within_a_level(self):
        from deltatower import TowerSpec

        first = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
        wide = SeriesContext.default(TowerSpec((20,)), order=4).value_map()
        assert [wide[("c", 1, j)] for j in range(1, 21)] == first + [67, 71]
        # across levels the cycle of 18 goes on: seven levels of 3 reuse 2, 3, 5
        deep = SeriesContext.default(TowerSpec((3,) * 7), order=4).value_map()
        assert [deep[("c", i, j)] for i in range(1, 8) for j in (1, 2, 3)] == first + [2, 3, 5]
        # a level of 40 after 10 symbols: its first 18 take the cycle from 10 on
        mixed = SeriesContext.default(TowerSpec((10, 40)), order=4).value_map()
        level2 = [mixed[("c", 2, j)] for j in range(1, 41)]
        assert level2[:18] == first[10:] + first[:10]
        assert level2[18:20] == [67, 71] and len(set(level2)) == 40

    FIRST = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]

    @pytest.mark.parametrize(
        "ranks, assignments, want",
        [
            # the towers of the oracle benchmark
            ((2, 2), (), FIRST[:4]),
            ((3,), (), FIRST[:3]),
            ((1, 1, 1), (), FIRST[:3]),
            ((2, 1, 2), (), FIRST[:5]),
            ((3, 3), (), FIRST[:6]),
            # a level of 25 symbols after one of 10
            ((10, 25), (), FIRST + FIRST[:10] + [67, 71, 73, 79, 83, 89, 97]),
            # explicit values that collide with no default
            ((3, 2), (("c[1][2]", "4.5"), ("c[2][1]", "13")), [2, 4.5, 5, 13, 11]),
        ],
    )
    def test_defaults_without_a_collision_stay_put(self, ranks, assignments, want):
        ctx = SeriesContext.default(TowerSpec(ranks, assignments), order=4)
        assert [x for _, x in ctx.values] == want

    @pytest.mark.parametrize(
        "ranks, assignments, want",
        [
            # c[1][2] defaults to 3; 5 and 7 are taken at level 1, so it moves to 11
            ((4,), (("c[1][1]", "3"),), [3, 11, 5, 7]),
            ((2,), (("c[1][1]", "3"),), [3, 5]),
            # two moves at one level, each to the smallest free prime above it
            ((4,), (("c[1][1]", "3"), ("c[1][3]", "7")), [3, 5, 7, 11]),
            ((2,), (("c[1][2]", "2.0"),), [3, 2]),
            # a collision at level 2 leaves level 1 alone
            ((2, 2), (("c[2][1]", "7"),), [2, 3, 7, 11]),
        ],
    )
    def test_a_default_equal_to_an_explicit_value_moves_up(self, ranks, assignments, want):
        ctx = SeriesContext.default(TowerSpec(ranks, assignments), order=4)
        assert [x for _, x in ctx.values] == want

    def test_equal_explicit_values_at_one_level_are_refused(self):
        from deltatower.errors import ParseError

        spec = TowerSpec((3,), (("c[1][1]", "2"), ("c[1][3]", "2")))
        with pytest.raises(ParseError, match="not pairwise distinct"):
            SeriesContext.default(spec, order=4)

    def test_non_invertible_denominator(self):
        ctx = SeriesContext.default(SPEC, order=6)
        x = 1 / (SPEC.generator(1, 1) - SPEC.generator(1, 2))
        with pytest.raises(NonInvertibleSeries):
            eval_series(x, ctx, SPEC)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            SeriesContext(order=1, values=())
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SeriesContext(order=4, values=((("c", 1, 1), bad),))
        with pytest.raises(ValueError):
            SeriesContext(
                order=4, values=((("c", 1, 1), 2.0), (("c", 1, 2), 2.0))
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_derive_commutes_with_series(self, seed):
        rng = random.Random(seed)
        spec = build_spec((2, 2))
        ctx = SeriesContext.default(spec, order=12)
        x = random_element(rng, spec)
        assert delta_consistency_residual(x, ctx, spec) < 1e-9


class TestDeltaConsistency:
    """The check compares N d^2 with D (n' d - n d') for x = n/d and
    derive(x) = N/D at one point mod a prime, so it divides nowhere and
    builds no series."""

    HARD = ["1/b[1][3]^2", "1/(b[1][1]+b[1][2]+b[1][3])^2"]

    @pytest.mark.parametrize("order", [32, 64])
    @pytest.mark.parametrize("text", HARD)
    def test_ill_conditioned_denominators_pass(self, text, order):
        # series division loses digits on these (2.1e-08 and 9.9e-09 at order 32)
        spec = build_spec((3,))
        ctx = SeriesContext.default(spec, order=order)
        assert delta_consistency_residual(parse_element(text), ctx, spec) < 1e-9

    def test_zero_constant_term_is_not_invertible(self):
        # d(0) = 0, so x has no series; the identity needs only d != 0 at
        # the point, where it holds
        ctx = SeriesContext.default(SPEC, order=6)
        x = 1 / (SPEC.generator(1, 1) - SPEC.generator(1, 2))
        with pytest.raises(NonInvertibleSeries):
            eval_series(x, ctx, SPEC)
        assert delta_consistency_residual(x, ctx, SPEC) == 0.0

    @pytest.mark.parametrize("text", ["b[1][2]/c[1][1]", "b[1][1]/(c[1][1]*b[1][1] + c[1][1]*b[1][2])"])
    def test_a_denominator_zero_at_the_values_is_not_invertible(self, text):
        # d vanishes at c[1][1] = 0 whatever the generators are: every prime is tried
        spec = TowerSpec(ranks=(2,), assignments=(("c[1][1]", "0"),))
        ctx = SeriesContext.default(spec, order=6)
        with pytest.raises(NonInvertibleSeries, match="every point"):
            delta_consistency_residual(parse_element(text), ctx, spec)
        primes = [key[2] for key in spec._caches if key[0] == "point"]
        assert primes == list(polyring._PRIMES)

    def test_a_coefficient_denominator_of_the_prime_moves_to_the_next(self):
        spec = build_spec((1,))
        ctx = SeriesContext.default(spec, order=8)
        x = parse_element("b[1][1]/2305843009213693951")  # 2^61 - 1
        assert delta_consistency_residual(x, ctx, spec) == 0.0
        assert [key[2] for key in spec._caches if key[0] == "point"] == list(polyring._PRIMES[:2])

    def test_the_verdict_ignores_the_order(self):
        spec = build_spec((2, 1))
        rng = random.Random("any order")
        for _ in range(20):
            x = random_element(rng, spec)
            contexts = [SeriesContext.default(spec, order) for order in (2, 12, 64)]
            verdicts = {delta_consistency_residual(x, ctx, spec) for ctx in contexts}
            assert verdicts == {0.0}, str(x)
        assert [key[0] for key in spec._caches].count("point") == 1

    @staticmethod
    def _scaled(x, spec):
        return derive(x, spec) * Fraction(10**7 + 1, 10**7)

    @staticmethod
    def _quotient_term_dropped(x, spec):
        return Element(_derive_poly(x.num, spec), x.den)

    # weight 0 at the default values c[1][j] -> 2, 3, 5: delta x = 0 and x
    # is the series 1, which float series match only up to rounding noise
    WEIGHT_ZERO = ["b[1][2]^2/b[1][1]^3", "b[1][1]^6/b[1][2]^4", "b[1][1]^9/b[1][2]^6"]

    @pytest.mark.parametrize("order", [16, 32, 64])
    @pytest.mark.parametrize("text", WEIGHT_ZERO)
    def test_weight_zero_quotients_pass(self, text, order):
        spec = build_spec((3,))
        ctx = SeriesContext.default(spec, order=order)
        assert delta_consistency_residual(parse_element(text), ctx, spec) < 1e-9

    def test_drawn_weight_zero_quotients_pass(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        symbols = ["b[1][1]", "b[1][2]", "b[1][3]", "c[1][1]", "c[1][2]", "c[1][3]"]
        factors = st.lists(st.tuples(st.sampled_from(symbols), st.integers(1, 3)), max_size=2)

        @st.composite
        def terms(draw):
            # b[1][1]^(3k)/b[1][2]^(2k) or its inverse, times another monomial
            k = draw(st.integers(1, 3))
            up, down = f"b[1][1]^{3 * k}", f"b[1][2]^{2 * k}"
            quotient = draw(st.sampled_from([f"{up}/{down}", f"{down}/{up}"]))
            other = "".join(f"*{s}^{e}" for s, e in draw(factors))
            return f"{draw(st.integers(1, 4))}*({quotient}){other}"

        @settings(max_examples=60)
        @given(parts=st.lists(terms(), min_size=1, max_size=3), order=st.sampled_from([16, 32, 64]))
        def check(parts, order):
            spec = build_spec((3,))
            x = parse_element(" + ".join(parts))
            ctx = SeriesContext.default(spec, order=order)
            assert delta_consistency_residual(x, ctx, spec) < 1e-9, (str(x), order)

        check()

    @pytest.mark.parametrize("mutant", ["_scaled", "_quotient_term_dropped"])
    def test_a_wrong_derive_fails_wherever_it_differs(self, mutant, monkeypatch):
        wrong = getattr(self, mutant)
        cases = []
        for utype in [(2, 2), (3,), (2, 1, 2)]:
            spec = build_spec(utype)
            rng = random.Random(f"wrong derive {utype}")
            cases += [(random_element(rng, spec), spec) for _ in range(12)]
        cases += [(parse_element(text), build_spec((3,))) for text in self.HARD]
        differing = [(x, spec) for x, spec in cases if wrong(x, spec) != derive(x, spec)]
        assert len(differing) >= 10
        monkeypatch.setattr(series, "derive", wrong)
        for x, spec in differing:
            for order in (12, 32, 64):
                ctx = SeriesContext.default(spec, order=order)
                assert delta_consistency_residual(x, ctx, spec) >= 1e-9, (str(x), order)


ORACLE_TOWERS = [(2, 2), (3,), (1, 1, 1), (2, 1, 2), (3, 3)]


def _count_exp(monkeypatch):
    """Wrap Series.exp; the returned list grows by one per call."""
    calls = []
    real = Series.exp

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Series, "exp", counted)
    return calls


def _generator_tables(ctx, spec):
    """The generator series and their reciprocals, by generator, from the
    numeric table of (spec, ctx)."""
    terms = series._terms(ctx, spec)
    return terms.gens, terms.recips


class TestGeneratorTable:
    """The generator series are built once per (spec, context) and shared."""

    @pytest.mark.parametrize("order", [12, 32, 64])
    @pytest.mark.parametrize("utype", ORACLE_TOWERS)
    def test_cached_table_equals_a_fresh_build(self, utype, order):
        spec = build_spec(utype)
        ctx = SeriesContext.default(spec, order=order)
        rng = random.Random(f"table {utype}")
        for _ in range(10):  # use the cached table before comparing it
            x = random_element(rng, spec)
            eval_series(x, ctx, spec)
            delta_consistency_residual(x, ctx, spec)
        cached = _generator_tables(ctx, spec)
        fresh = _generator_tables(ctx, TowerSpec(spec.ranks))  # an empty cache
        for got, want in zip(cached, fresh):
            assert list(got) == list(want) and len(want) == sum(spec.ranks)
            for v in want:
                assert got[v].coeffs.tobytes() == want[v].coeffs.tobytes(), v

    def test_equal_contexts_share_one_build(self, monkeypatch):
        spec = build_spec((2, 1))
        values = SeriesContext.default(spec).values
        first, second = SeriesContext(16, values), SeriesContext(16, values)
        assert first == second and first is not second
        calls = _count_exp(monkeypatch)
        eval_series(spec.generator(2, 1), first, spec)
        assert len(calls) == 6  # a series and a reciprocal per generator
        eval_series(1 / spec.generator(2, 1), second, spec)
        delta_consistency_residual(spec.generator(1, 2), second, spec)
        assert len(calls) == 6
        assert series._terms(first, spec) is series._terms(second, spec)

    def test_default_context_is_one_object_per_spec_and_order(self):
        spec = build_spec((2, 1))
        assert SeriesContext.default(spec, 16) is SeriesContext.default(spec, 16)
        assert SeriesContext.default(spec, 16) is not SeriesContext.default(spec, 12)

    def test_order_and_assignments_get_their_own_entries(self, monkeypatch):
        spec = build_spec((2,))
        base = SeriesContext.default(spec, order=8)
        longer = SeriesContext.default(spec, order=9)
        assigned = TowerSpec(ranks=(2,), assignments=(("c[1][1]", "7"),))
        cases = [(base, spec), (longer, spec)]
        cases.append((SeriesContext.default(assigned, order=8), assigned))
        calls = _count_exp(monkeypatch)
        tables = []
        for ctx, s in cases:
            before = len(calls)
            tables.append(_generator_tables(ctx, s))
            assert len(calls) - before == 4
        assert len({id(table) for table in tables}) == len(tables)
        assert tables[1][0][("b", 1, 1)].order == 9
        assert tables[2][0][("b", 1, 1)][1] == 7.0

    def test_cached_coefficients_are_read_only(self):
        spec = build_spec((2, 1))
        for table in _generator_tables(SeriesContext.default(spec), spec):
            for s in table.values():
                with pytest.raises(ValueError):
                    s.coeffs[0] = 0.0
                with pytest.raises(ValueError):
                    s.coeffs += 1.0


def _exact_exp(h):
    """exp of an exact series with h[0] = 0: (k+1) g_{k+1} = sum (i+1) h_{i+1} g_{k-i}."""
    g = [Fraction(1)]
    for k in range(len(h) - 1):
        g.append(sum((i + 1) * h[i + 1] * g[k - i] for i in range(k + 1)) / (k + 1))
    return g


def _exact_reference(text, order):
    """Exact Fraction coefficients of the default-context series of a few elements."""
    if text == "1/b[1][3]^2":  # exp(-10 t), c[1][3] -> 5
        return [Fraction((-10) ** k, math.factorial(k)) for k in range(order)]
    if text == "1/b[2][1]":  # exp(-3 (exp(2 t) - 1) / 2) on (1, 1), c -> (2, 3)
        phase = [Fraction(0)] + [Fraction(2 ** (k - 1), math.factorial(k)) for k in range(1, order)]
        return _exact_exp([-3 * c for c in phase])
    if text == "b[1][1]/c[1][1]":  # exp(2 t) / 2
        return [Fraction(2**k, 2 * math.factorial(k)) for k in range(order)]
    raise KeyError(text)


class TestReciprocalDenominators:
    """A monomial denominator multiplies by reciprocal series; checked
    against exact rational series and against series division."""

    @pytest.mark.parametrize("order", [32, 64])
    @pytest.mark.parametrize(
        "text, utype", [("1/b[1][3]^2", (3,)), ("1/b[2][1]", (1, 1)), ("b[1][1]/c[1][1]", (3,))]
    )
    def test_matches_the_exact_series(self, text, utype, order):
        spec = build_spec(utype)
        s = eval_series(parse_element(text), SeriesContext.default(spec, order=order), spec)
        for k, (got, want) in enumerate(zip(s.coeffs, _exact_reference(text, order))):
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * abs(want), (k, got, float(want))

    @pytest.mark.parametrize("utype", ORACLE_TOWERS)
    def test_agrees_with_series_division_at_low_order(self, utype):
        spec = build_spec(utype)
        ctx = SeriesContext.default(spec, order=12)
        terms = series._terms(ctx, spec)
        rng = random.Random(f"reciprocal {utype}")
        checked = 0
        for _ in range(40):
            x = random_element(rng, spec)
            if x.den.is_const():
                continue
            num, den = (series._eval_poly(p, terms) for p in (x.num, x.den))
            # division loses digits even here (6e-12 on (2*c[1][2] - b[1][2])/b[1][3]^2)
            assert residual(eval_series(x, ctx, spec), num / den) < 1e-9, str(x)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("text", ["1/c[1][1]", "b[1][2]/c[1][1]^2", "1/(b[1][2]*c[1][1])"])
    def test_zero_symbol_value_is_not_invertible(self, text):
        spec = TowerSpec(ranks=(2,), assignments=(("c[1][1]", "0"),))
        with pytest.raises(NonInvertibleSeries):
            eval_series(parse_element(text), SeriesContext.default(spec, order=6), spec)


def _per_term_poly(p, gens, values, order):
    """The evaluation before the monomial table, kept literally: every call
    rebuilds each term's generator product and adds one Series per term."""
    total = Series.zero(order)
    powers = {}
    for m, coeff in p.terms.items():
        scalar = float(coeff)
        factor = None
        for v, e in m_pairs(m):
            if v[0] == "b":
                if (v, e) not in powers:
                    powers[v, e] = gens[v] ** e
                s = powers[v, e]
                factor = s if factor is None else factor * s
            else:
                scalar *= values[v] ** e
        term = Series.const(scalar, order) if factor is None else factor * scalar
        total = total + term
    return total


def _per_term_series(x, ctx, spec):
    gens, recips = _generator_tables(ctx, spec)
    values = ctx.value_map()
    num = _per_term_poly(x.num, gens, values, ctx.order)
    if len(x.den.terms) > 1:
        return num / _per_term_poly(x.den, gens, values, ctx.order)
    [den] = x.den.terms
    scalar = 1.0
    for v, e in m_pairs(den):
        if v[0] == "b":
            num = num * recips[v] ** e
        else:
            scalar *= values[v] ** e
    return num / scalar


TABLE_TOWERS = [(2, 2), (3,), (1, 1, 1), (2, 1, 2), (3, 3), (1, 2, 3)]


def _decimal_spec(utype):
    """utype with the symbols at 0.3, 1.0, 1.7, ...: inexact values, so a
    product taken in another order rounds differently."""
    names = [f"c[{i}][{j}]" for i, n in enumerate(utype, 1) for j in range(1, n + 1)]
    return TowerSpec(utype, tuple((name, f"{0.3 + 0.7 * k:.1f}") for k, name in enumerate(names)))


# shared across examples, so the tables fill up as the examples run
TABLE_SPECS = [build_spec(utype) for utype in TABLE_TOWERS] + list(map(_decimal_spec, TABLE_TOWERS))


class TestMonomialTable:
    """Each monomial's series is built once per (spec, context); the sums
    keep the per-term evaluation's bytes."""

    def test_matches_the_per_term_evaluation(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @st.composite
        def cases(draw):
            spec = draw(st.sampled_from(TABLE_SPECS))
            utype = spec.ranks
            symbols = [
                (kind, i, j) for i, n in enumerate(utype, 1) for j in range(1, n + 1) for kind in "bc"
            ]
            monomials = st.lists(
                st.tuples(st.sampled_from(symbols), st.integers(1, 2)), max_size=3
            ).map(monomial)
            coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
            num = Poly(draw(st.dictionaries(monomials, coeffs, min_size=1, max_size=5)))
            # positive coefficients keep d(0) > 0: every generator is 1 at t = 0
            shape = draw(st.sampled_from(["one", "monomial", "sum"]))
            if shape == "one":
                den = Poly.const(1)
            elif shape == "monomial":
                den = Poly({draw(monomials): 1})
            else:  # tower-shaped: a monomial times a power of e_k
                k = draw(st.integers(1, len(utype)))
                e_k = spec.e(k).num
                den = Poly({draw(monomials): 1}) * e_k ** draw(st.integers(1, 2))
            return spec, Element(num, den), draw(st.integers(2, 64))

        @settings(max_examples=150)
        @given(case=cases())
        def check(case):
            spec, x, order = case
            ctx = SeriesContext.default(spec, order=order)
            got = eval_series(x, ctx, spec).coeffs
            assert got.tobytes() == _per_term_series(x, ctx, spec).coeffs.tobytes(), str(x)
            # the same shapes, decimal values included, hold exactly
            assert delta_consistency_residual(x, ctx, spec) == 0.0, str(x)

        check()

    def test_cached_arrays_are_read_only(self):
        spec = build_spec((2, 1))
        ctx = SeriesContext.default(spec, order=12)
        x = parse_element("(b[1][1]^2*b[2][1] + c[1][2]*b[1][2] - 3)/(b[1][2]*b[2][1]^2)")
        eval_series(x, ctx, spec)
        terms = series._terms(ctx, spec)
        arrays = [factor for factor, _ in terms.products.values() if factor is not None]
        arrays += [s.coeffs for s in terms.powers.values()]
        assert len(arrays) >= 6 and any(e < 0 for _, e in terms.powers)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a += 1.0

    def test_one_cache_entry_per_context(self):
        spec = build_spec((2, 1))
        ctx = SeriesContext.default(spec, order=12)
        x = parse_element("(b[1][1]^2*b[2][1] + c[1][2]*b[1][2] - 3)/(b[1][2]*b[2][1]^2)")
        eval_series(x, ctx, spec)
        delta_consistency_residual(x, ctx, spec)
        numeric = [key for key in spec._caches if key[0] != "twist"]
        assert numeric == [("default", 12), ("terms", ctx), ("point", ctx.values, polyring._PRIMES[0])]

    def test_results_are_fresh_arrays(self):
        spec = build_spec((2,))
        ctx = SeriesContext.default(spec, order=8)
        for text in ["b[1][1]", "b[1][1]*b[1][2]", "c[1][1]", "b[1][2]^2/b[1][1]"]:
            s = eval_series(parse_element(text), ctx, spec)
            s.coeffs[0] = 7.0  # a caller may write to what it gets
        assert eval_series(parse_element("b[1][1]"), ctx, spec)[0] == 1.0

    def test_equal_contexts_share_one_table(self):
        spec = build_spec((2, 1))
        values = SeriesContext.default(spec).values
        first, second = SeriesContext(16, values), SeriesContext(16, values)
        assert first is not second
        assert series._terms(first, spec) is series._terms(second, spec)
        assert series._terms(SeriesContext(12, values), spec) is not series._terms(first, spec)
        x = parse_element("b[1][1]*b[2][1]")
        eval_series(x, first, spec)
        [m] = x.num.terms
        assert m in series._terms(second, spec).products

    @pytest.mark.parametrize(
        "text, error",
        [("b[1][1] + u[1][1]", UnknownSymbol), ("1/u[1][1]", UnknownSymbol), ("c[1][2]", UnknownSymbol)],
    )
    def test_a_symbol_without_value_raises_every_time(self, text, error):
        spec = build_spec((1,))
        ctx = SeriesContext.default(spec, order=8)
        x = parse_element(text)
        self._raises_every_time(x, ctx, spec, error)
        for _ in range(2):
            with pytest.raises(error):
                delta_consistency_residual(x, ctx, spec)

    def test_a_power_past_float_range_raises_every_time(self):
        spec = build_spec((2,))
        ctx = SeriesContext.default(spec, order=8)  # c[1][2] -> 3
        power = Poly({monomial([(var_c(1, 2), 700)]): 1})  # 3^700 > 1.8e308
        b11 = Poly.variable(var_b(1, 1))
        for x in (Element(b11 + power), Element(b11, power)):
            self._raises_every_time(x, ctx, spec, BudgetExceeded)
            # the verdict is exact: 3^700 is a residue like any other
            assert delta_consistency_residual(x, ctx, spec) == 0.0

    @staticmethod
    def _raises_every_time(x, ctx, spec, error):
        terms = series._terms(ctx, spec)
        for _ in range(2):
            with pytest.raises(error):
                eval_series(x, ctx, spec)
        failing = [m for p in (x.num, x.den) for m in p.terms if any(v[0] != "b" for v, _ in m_pairs(m))]
        assert failing and not any(m in terms.products for m in failing)
