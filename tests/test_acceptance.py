"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one line ``ACCEPTANCE <n> <name>: PASS`` on success (run
with ``pytest -s`` to see them).  Criterion 3 keeps the stated series rank
check at order 16 with the assignment (2, 3, 5), but asserts the rank that
assignment really has: the number of distinct integers r . (2, 3, 5) over
the exponent vectors, counted exactly.  2 + 3 = 5 and 3*2 = 2*3 are rational
relations among those values, so at degrees 2 and 3 some monomials evaluate
to identical exponentials and the rank is 9 of 10, although the prover
certifies independence over Q(c).  Agreement of prover and oracle is then
checked at (1, pi, pi^2), which is Q-linearly independent and well
separated: there the oracle must report full rank on every instance.
"""

import math
import random
import time
from itertools import combinations_with_replacement, permutations

import numpy as np
from _support import BUDGET_UTYPES

from deltatower import (
    Verdict,
    analysis_by_coreductions,
    analysis_by_reductions,
    apply_operator,
    build_E,
    build_spec,
    certify_independence,
    is_canonical,
    is_incompressible,
    is_minimal,
    logd_system,
    parse_element,
    series_rank_check,
    solve_prolonged,
    wronskian,
)
from deltatower.elements import Element
from deltatower.errors import TruncationTooShort
from deltatower.grid import Analysis, GridModel, build_seqred_a, build_seqred_b, height_chains
from deltatower.gridcheck import run_grid_suite
from deltatower.operators import FactoredOperator, decompose, expand, is_generic, prolonged_residual
from deltatower.relations import degree_vectors
from deltatower.tower import SeriesContext, delta_consistency_residual, eval_series, random_element

EMPTY = frozenset()


def _report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s < {budget}s)")


def test_criterion_1_tower_identities():
    start = time.perf_counter()
    for utype in BUDGET_UTYPES:
        spec = build_spec(utype)
        for i in range(1, spec.ell + 1):
            op = build_E(spec, i)
            assert apply_operator(op, spec.e(i), spec).is_zero(), (utype, i)
            combo = Element.from_rational(0)
            for j in range(1, spec.rank(i) + 1):
                combo = combo + parse_element(f"u[{i}][{j}]") * spec.generator(i, j)
            assert apply_operator(op, combo, spec).is_zero(), (utype, i)
            deco = decompose(spec.e(i), i, spec)
            assert is_generic(deco)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(1, "tower identities", elapsed, 60)


def test_criterion_2_operator_algebra():
    start = time.perf_counter()
    spec = build_spec((2, 2))
    symbols = [spec.symbol(i, j) for i in (1, 2) for j in (1, 2)]
    rng = random.Random(2)
    probes = [random_element(rng, spec, allow_denominator=False) for _ in range(2)]
    probes.append(spec.generator(1, 1) / spec.generator(1, 2))  # non-normal-form
    for size in range(1, 5):
        for values in combinations_with_replacement(symbols, size):
            op = FactoredOperator(1, values)
            expanded = expand(op)
            for perm in set(permutations(op.eigenvalues)):
                assert expand(FactoredOperator(1, perm)).coefficients == expanded.coefficients
            for x in probes:
                assert apply_operator(expanded, x, spec) == apply_operator(op, x, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(2, "operator algebra", elapsed, 10)


def test_criterion_3_independence_certificates():
    start = time.perf_counter()
    spec = build_spec((3,))
    primes = (2, 3, 5)
    ctx = SeriesContext.default(spec, order=16)  # c -> (2, 3, 5) as stated
    assert ctx.value_map() == {("c", 1, j + 1): float(p) for j, p in enumerate(primes)}
    generic = SeriesContext(
        order=16,
        values=tuple((("c", 1, j + 1), v) for j, v in enumerate((1.0, math.pi, math.pi**2))),
    )
    checked = 0
    for m in (1, 2, 3):
        variables = spec.generators(1)[:m]
        for d in (1, 2, 3):
            trace = certify_independence(variables, d, spec)
            assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION, (m, d)
            try:
                report = series_rank_check(variables, d, ctx, spec)
            except TruncationTooShort:
                continue  # 20 monomials exceed order 16 at m=3, d=3
            # at (2, 3, 5) the monomial y^r is exp((r . c) t): its rank is the
            # number of distinct integers r . (2, 3, 5), counted exactly
            vectors = degree_vectors(m, d, include_zero=True)
            distinct = len({sum(e * p for e, p in zip(r, primes)) for r in vectors})
            assert report.rows == len(vectors), (m, d)
            assert report.rank == distinct, (m, d, report.rank, distinct)
            # at the Q-linearly independent (1, pi, pi^2) the oracle agrees
            # with the prover: full rank, well clear of the threshold
            generic_report = series_rank_check(variables, d, generic, spec)
            assert generic_report.full_rank, (m, d, generic_report.rank)
            assert generic_report.smallest_singular_value > 1e-6, (m, d)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 8
    assert elapsed < 30
    _report(3, "independence certificates", elapsed, 30)


def test_criterion_4_wronskian_consistency():
    start = time.perf_counter()
    spec = build_spec((3,))
    gens = spec.generators(1)
    c = [spec.symbol(1, j) for j in (1, 2, 3)]
    # 2x2: exact closed form
    assert wronskian(gens[:2], 1, spec) == (c[1] - c[0]) * gens[0] * gens[1]
    # 3x3: the Vandermonde product, nonzero symbolically
    w3 = wronskian(gens, 1, spec)
    assert not w3.is_zero()
    assert w3 == (c[1] - c[0]) * (c[2] - c[0]) * (c[2] - c[1]) * gens[0] * gens[1] * gens[2]
    # and full rank numerically
    ctx = SeriesContext.default(spec, order=16)
    rows = np.array([eval_series(x, ctx, spec).coeffs for x in gens])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    assert np.linalg.svd(rows, compute_uv=False)[-1] > 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(4, "wronskian/eigen consistency", elapsed, 10)


def test_criterion_5_grid_exhaustive_suite():
    start = time.perf_counter()
    reports = run_grid_suite(max_cells=9)
    for r in reports:
        assert r.passed, r.line()
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(5, "grid exhaustive suite", elapsed, 120)


def test_criterion_6_worked_examples_in_grid():
    g = GridModel(2, 2)
    S = frozenset({(2, 1), (1, 2)})
    ar = analysis_by_reductions(S, EMPTY, g)
    ac = analysis_by_coreductions(S, EMPTY, g)
    assert ar.utype() == (2, 1)
    assert ac.utype() == (1, 2)
    assert ar.steps != ac.steps  # not interalgebraic
    # no canonical analysis: every minimal analysis fails canonicity
    for chain in height_chains(ar.base, ar.target, max_length=2):
        assert not is_canonical(Analysis(g, ar.base, ar.target, tuple(chain)))
    # the 3-step staircase is incompressible but not minimal
    staircase = Analysis(g, (0, 0), (2, 2), ((1, 0), (2, 1), (2, 2)))
    staircase.validate()
    assert is_incompressible(staircase)
    assert not is_minimal(staircase)
    # the depth-n column has minimal analysis length exactly n
    for n in range(1, 5):
        gn = GridModel(n, 1)
        column = frozenset({(n, 1)})
        a = analysis_by_reductions(column, EMPTY, gn)
        assert a.length == n and is_minimal(a)
        assert next(height_chains(a.base, a.target, max_length=n - 1), None) is None
    _report(6, "worked examples in the grid model", 0.0, 120)


def _monotone_sequences(total, nonincreasing):
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        lo, hi = 1, remaining
        for v in range(lo, hi + 1):
            if prefix:
                if nonincreasing and v > prefix[-1]:
                    continue
                if not nonincreasing and v < prefix[-1]:
                    continue
            rec(prefix + [v], remaining - v)

    rec([], total)
    return sorted(set(out))


def test_criterion_7_seqred_constructions():
    start = time.perf_counter()
    checked = 0
    for s in _monotone_sequences(8, nonincreasing=True):
        g, target = build_seqred_a(s)
        assert analysis_by_reductions(target, EMPTY, g).utype() == s, s
        checked += 1
    for s in _monotone_sequences(8, nonincreasing=False):
        g, target = build_seqred_b(s)
        assert analysis_by_coreductions(target, EMPTY, g).utype() == s, s
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 132  # 66 partitions each way
    assert elapsed < 30
    _report(7, "prescribed U-type constructions", elapsed, 30)


def test_criterion_8_series_oracle():
    start = time.perf_counter()
    rng = random.Random(8)
    # prolonged systems n <= 3 at order 12
    for n in (1, 2, 3):
        system = logd_system(n, 0)
        initial = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)]
        xs = solve_prolonged(system, initial, 12)
        assert prolonged_residual(system, xs) < 1e-9
        # the n-fold logarithmic derivative of x_1 vanishes
        current = xs[0]
        for _ in range(n):
            current = current.deriv() / current.truncate(current.order - 1)
        assert current.max_abs() < 1e-9
    # derivation commutes with the series interpretation
    spec = build_spec((2, 2))
    ctx = SeriesContext.default(spec, order=12)
    for _ in range(100):
        x = random_element(rng, spec)
        assert delta_consistency_residual(x, ctx, spec) < 1e-9
    elapsed = time.perf_counter() - start
    _report(8, "series oracle", elapsed, 120)
