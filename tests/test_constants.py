"""Exact constant-field arithmetic and the Q-linear algebra of the prover."""

import random
from fractions import Fraction
from itertools import product

import pytest

from deltatower import (
    DivisionByZero,
    NotLinear,
    parse_element,
    qlinear_dot,
    qlinear_independent,
)
from deltatower.elements import Element

C11, C12, C13, C21 = (parse_element(t) for t in ("c[1][1]", "c[1][2]", "c[1][3]", "c[2][1]"))


class TestArith:
    def test_add_then_subtract_cancels(self):
        assert (C11 + C12) - C12 == C11

    def test_self_division_is_one(self):
        assert C11 / C11 == Element.from_rational(1)

    def test_polynomial_division_oracle(self):
        # (c11^2 - c12^2) / (c11 - c12) = c11 + c12; re-multiplied to confirm
        num = C11 * C11 - C12 * C12
        den = C11 - C12
        quotient = num / den
        assert quotient == C11 + C12
        assert quotient * den == num

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            C11 / (C11 - C11)


class TestFieldLaws:
    def _random_expr(self, rng):
        gens = [C11, C12, C21, parse_element("u[1][1]")]
        out = Element.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3)):
            pick = rng.choice(gens)
            out = rng.choice([out + pick, out * pick, out - pick])
        return out

    @pytest.mark.parametrize("seed", range(10))
    def test_ring_axioms_hold_canonically(self, seed):
        rng = random.Random(seed)
        a, b, c = (self._random_expr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("seed", range(5))
    def test_division_inverts_multiplication(self, seed):
        rng = random.Random(seed)
        a, b = self._random_expr(rng), self._random_expr(rng)
        if b.is_zero():
            return
        assert (a * b) / b == a


class TestQLinearDot:
    def test_definition(self):
        assert qlinear_dot((1, 2), [C11, C12]) == C11 + 2 * C12

    def test_zero_vector(self):
        assert qlinear_dot((0, 0), [C11, C12]).is_zero()

    def test_difference_is_nonzero(self):
        value = qlinear_dot((1, -1), [C11, C12])
        assert value == C11 - C12
        assert not value.is_zero()

    def test_distinct_vectors_give_distinct_values(self):
        # exactness guarantee used by the relation prover
        vectors = [r for r in product(range(3), repeat=3)]
        values = {qlinear_dot(r, [C11, C12, C13]) for r in vectors}
        assert len(values) == len(vectors)


class TestQLinearIndependent:
    def test_distinct_symbols(self):
        assert qlinear_independent([C11, C12])

    def test_scalar_multiple(self):
        assert not qlinear_independent([C11, 2 * C11])

    def test_three_vectors_in_two_dimensions(self):
        assert not qlinear_independent([C11 + C12, C11 - C12, C11])

    def test_constant_terms_take_part(self):
        assert qlinear_independent([C11 + 1, C11])
        assert not qlinear_independent([C11 + 1, C11, Element.from_rational(1)])

    def test_no_vectors_are_independent(self):
        assert qlinear_independent([])

    def test_not_linear(self):
        with pytest.raises(NotLinear):
            qlinear_independent([C11 * C11])
        with pytest.raises(NotLinear):
            qlinear_independent([1 / C11])

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_small_relation_search(self, seed):
        """Brute-force oracle: search integer relations with coefficients
        in [-5, 5]."""
        rng = random.Random(seed)
        syms = [C11, C12]
        # entries in {-1,0,1} keep any kernel vector within the search range
        vectors = []
        for _ in range(rng.randint(1, 3)):
            vectors.append(
                qlinear_dot((rng.randint(-1, 1), rng.randint(-1, 1)), syms)
                + rng.randint(-1, 1)
            )
        relation_found = False
        for coeffs in product(range(-5, 6), repeat=len(vectors)):
            if not any(coeffs):
                continue
            total = Element.from_rational(0)
            for k, v in zip(coeffs, vectors):
                total = total + k * v
            if total.is_zero():
                relation_found = True
                break
        assert qlinear_independent(vectors) == (not relation_found)
