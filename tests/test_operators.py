"""Factored/expanded operators, eigen-decomposition, Wronskians, the
prolonged system."""

import random
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from deltatower import (
    FactoredOperator,
    LevelOutOfRange,
    NotNormalForm,
    ZeroInitialValue,
    apply_operator,
    build_E,
    build_spec,
    decompose,
    expand,
    is_generic,
    logd_system,
    solve_prolonged,
    wronskian,
)
from deltatower.elements import ZERO_ELEMENT
from deltatower.series import SeriesContext, eval_series, prolonged_residual, residual
from deltatower.textio import parse_element
from deltatower.tower import random_element

SPEC = build_spec((2, 1))
B11 = SPEC.generator(1, 1)
B12 = SPEC.generator(1, 2)
B21 = SPEC.generator(2, 1)
C11 = SPEC.symbol(1, 1)
C12 = SPEC.symbol(1, 2)


def _product(values):
    out = parse_element("1")
    for v in values:
        out = out * v
    return out


class TestBuildE:
    def test_level_one_factors(self):
        op = build_E(SPEC, 1)
        assert op.to_text() == "(D[1] - c[1][1]) * (D[1] - c[1][2])"

    def test_level_two_single_factor(self):
        op = build_E(SPEC, 2)
        assert op.to_text() == "(D[2] - c[2][1])"

    def test_level_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            build_E(SPEC, 3)

    def test_to_text_parenthesises_a_sum_eigenvalue(self):
        op = FactoredOperator(1, (C11, C11 + C12))
        assert op.to_text() == "(D[1] - c[1][1]) * (D[1] - (c[1][2] + c[1][1]))"
        assert str(op) == op.to_text()

    @pytest.mark.parametrize(
        "level, eigenvalues",
        [(0, (C11,)), (1, ()), (1, (C11, B11))],
        ids=["level 0", "no eigenvalue", "b[1][1] as an eigenvalue"],
    )
    def test_factored_operator_rejects(self, level, eigenvalues):
        with pytest.raises(ValueError):
            FactoredOperator(level, eigenvalues)


class TestApply:
    def test_e1_solves_E1(self):
        assert apply_operator(build_E(SPEC, 1), SPEC.e(1), SPEC).is_zero()

    def test_generator_is_an_eigenvector(self):
        assert apply_operator(FactoredOperator(1, (C11,)), B11, SPEC).is_zero()

    def test_e2_solves_E2(self):
        assert apply_operator(build_E(SPEC, 2), SPEC.e(2), SPEC).is_zero()

    def test_scaled_combinations_stay_in_the_kernel(self):
        # linearity over fresh constants
        f = parse_element("u[1][1]") * B11 + parse_element("u[1][2]") * B12
        assert apply_operator(build_E(SPEC, 1), f, SPEC).is_zero()

    def test_nonsolution_is_not_killed(self):
        assert not apply_operator(build_E(SPEC, 1), B11 * B12, SPEC).is_zero()


class TestExpand:
    def test_two_factor_expansion(self):
        op = expand(build_E(SPEC, 1))
        # D^2 - (c11+c12) D + c11 c12
        assert op.coefficients == (C11 * C12, -(C11 + C12), parse_element("1"))

    def test_single_factor(self):
        op = expand(build_E(SPEC, 2))
        assert op.coefficients == (-SPEC.symbol(2, 1), parse_element("1"))

    def test_permutation_invariance(self):
        eigenvalues = (C11, C12, C11 + C12)
        base = expand(FactoredOperator(1, eigenvalues))
        for perm in permutations(eigenvalues):
            assert expand(FactoredOperator(1, perm)).coefficients == base.coefficients

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_coefficients_are_signed_elementary_symmetric(self, size):
        """Independent oracle: brute-force elementary symmetric polynomials
        over all subsets of the eigenvalues."""
        from itertools import combinations

        spec = build_spec((2, 2))
        values = [spec.symbol(i, j) for i in (1, 2) for j in (1, 2)][:size]
        op = FactoredOperator(1, tuple(values))
        expanded = expand(op)
        m = len(values)
        for k in range(m + 1):
            sym = sum(
                (_product(sub) for sub in combinations(values, k)),
                start=parse_element("0"),
            )
            sign = 1 if k % 2 == 0 else -1
            assert expanded.coefficients[m - k] == sign * sym

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_expand_apply_agreement(self, size):
        spec = build_spec((2, 2))
        symbols = [spec.symbol(i, j) for i in (1, 2) for j in (1, 2)]
        rng = random.Random(size)
        for values in combinations_with_replacement(symbols, size):
            op = FactoredOperator(1, tuple(values))
            expanded = expand(op)
            for _ in range(2):
                x = random_element(rng, spec)
                assert apply_operator(expanded, x, spec) == apply_operator(op, x, spec)


class TestDecompose:
    def test_e1_splits_into_generators(self):
        deco = decompose(SPEC.e(1), 1, SPEC)
        assert deco.components == (B11, B12)
        assert is_generic(deco)

    def test_missing_component_is_zero(self):
        u = parse_element("u[1][1]")
        deco = decompose(u * B11, 1, SPEC)
        assert deco.components == (u * B11, ZERO_ELEMENT)
        assert not is_generic(deco)

    def test_zero_decomposition_not_generic(self):
        deco = decompose(ZERO_ELEMENT, 1, SPEC)
        assert deco.components == (ZERO_ELEMENT, ZERO_ELEMENT)
        assert not is_generic(deco)

    def test_quadratic_monomial_rejected(self):
        with pytest.raises(NotNormalForm):
            decompose(B11 * B12, 1, SPEC)

    def test_wrong_level_rejected(self):
        with pytest.raises(NotNormalForm):
            decompose(B21, 1, SPEC)

    def test_constant_term_rejected(self):
        with pytest.raises(NotNormalForm):
            decompose(B11 + 1, 1, SPEC)


class TestWronskian:
    def test_two_generators_closed_form(self):
        # 2x2 determinant: b11*(c12 b12) - b12*(c11 b11)
        assert wronskian([B11, B12], 1, SPEC) == (C12 - C11) * B11 * B12

    def test_singleton(self):
        assert wronskian([B11], 1, SPEC) == B11

    def test_dependent_pair_vanishes(self):
        assert wronskian([B11, 2 * B11], 1, SPEC).is_zero()

    def test_three_generators_vandermonde(self):
        spec = build_spec((3,))
        gens = spec.generators(1)
        c = [spec.symbol(1, j) for j in (1, 2, 3)]
        w = wronskian(gens, 1, spec)
        vandermonde = (c[1] - c[0]) * (c[2] - c[0]) * (c[2] - c[1])
        assert w == vandermonde * gens[0] * gens[1] * gens[2]

    def test_numeric_rank_matches_symbolic_verdict(self):
        """All level-1 test sets of size <= 3 drawn from generators, scaled
        generators and small sums: Wronskian nonzero iff numeric full rank."""
        from itertools import combinations_with_replacement

        spec = build_spec((3,))
        ctx = SeriesContext.default(spec, order=12)
        g = spec.generators(1)
        pool = [g[0], g[1], g[2], 2 * g[0], g[0] + g[1]]
        for size in (1, 2, 3):
            for xs in combinations_with_replacement(pool, size):
                rows = np.array([eval_series(x, ctx, spec).coeffs for x in xs])
                norms = np.linalg.norm(rows, axis=1)
                sigma = np.linalg.svd(rows / norms[:, None], compute_uv=False)
                numeric_full = bool(sigma[-1] > 1e-6)
                symbolic_nonzero = not wronskian(list(xs), 1, spec).is_zero()
                assert numeric_full == symbolic_nonzero, [str(x) for x in xs]


class TestProlongedSystem:
    def test_descriptor_text(self):
        system = logd_system(2, 0)
        assert str(system) == "{delta x_1 = x_1*x_2; delta x_2 = 0}"

    def test_exponential_solution(self):
        system = logd_system(2, 0)
        xs = solve_prolonged(system, [1.0, 1.0], 5)
        assert np.allclose(xs[0].coeffs, [1, 1, 1 / 2, 1 / 6, 1 / 24])
        assert np.allclose(xs[1].coeffs, [1, 0, 0, 0, 0])

    def test_zero_initial_value(self):
        with pytest.raises(ZeroInitialValue):
            solve_prolonged(logd_system(2, 0), [1.0, 0.0], 5)

    @pytest.mark.parametrize("seed", range(5))
    def test_defining_equation_residuals(self, seed):
        rng = random.Random(seed)
        system = logd_system(3, 0)
        initial = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(3)]
        xs = solve_prolonged(system, initial, 12)
        assert prolonged_residual(system, xs) < 1e-9

    def test_iterated_logd_link(self):
        # a solution of the n=3 system with h=0 satisfies logd^(3)(x_1) = 0
        system = logd_system(3, 0)
        xs = solve_prolonged(system, [1.0, 0.5, 2.0], 12)
        current = xs[0]
        for _ in range(3):
            current = current.deriv() / current.truncate(current.order - 1)
        assert current.max_abs() < 1e-9

    def test_nonconstant_h_through_context(self):
        spec = build_spec((1,))
        ctx = SeriesContext.default(spec, order=8)
        h = spec.generator(1, 1)  # h = b11 = exp(2t)
        system = logd_system(1, h)
        h_series = eval_series(h, ctx, spec)
        xs = solve_prolonged(system, [1.0], 8, h_series)
        assert prolonged_residual(system, xs, h_series) < 1e-12
        with pytest.raises(ValueError, match="not a rational number"):
            solve_prolonged(system, [1.0], 8)
        with pytest.raises(ValueError, match="shorter"):
            solve_prolonged(system, [1.0], 9, h_series)
        # x' = h x with x(0)=1 is exp of the integral of h
        expected = h_series.integ().exp()
        assert residual(xs[0], expected) < 1e-12
