"""The term-minimization prover and its numerical counterpart."""

import hashlib
import json
import math
import random

import pytest

from deltatower import (
    MonomialRelation,
    SupportTooSmall,
    TruncationTooShort,
    Verdict,
    build_spec,
    certify_independence,
    invariant_monomial,
    reduce_step,
    run_reduction,
    series_rank_check,
)
from deltatower import relations
from deltatower.elements import Element, ONE_ELEMENT, ZERO_ELEMENT
from deltatower.relations import (
    ReductionStep,
    ReductionTrace,
    degree_vectors,
    qlinear_dot,
)
from deltatower.textio import parse_element
from deltatower.series import SeriesContext
from deltatower.tower import logd

from _support import counting_cancel, seeded_relations

SPEC = build_spec((3, 2))
B11 = SPEC.generator(1, 1)
B12 = SPEC.generator(1, 2)
B13 = SPEC.generator(1, 3)
C11 = SPEC.symbol(1, 1)
C12 = SPEC.symbol(1, 2)


def relation(level, variables, coeffs):
    return MonomialRelation(level, tuple(variables), dict(coeffs))


@pytest.mark.parametrize("include_zero", [True, False])
def test_degree_vectors_match_the_filtered_product(include_zero):
    from itertools import product

    for m in range(7):
        for d in range(7):
            low = 0 if include_zero else 1
            filtered = [r for r in product(range(d + 1), repeat=m) if low <= sum(r) <= d]
            assert degree_vectors(m, d, include_zero=include_zero) == filtered, (m, d)


class TestReduceStep:
    def test_linear_relation(self):
        # G = y1 - y2 with pivot (1,0): the y2 coefficient becomes
        # (phi(1,0) - phi(0,1)) * (-1) = c12 - c11
        G = relation(1, (B11, B12), {(1, 0): ONE_ELEMENT, (0, 1): -ONE_ELEMENT})
        out = reduce_step(G, (1, 0), SPEC)
        assert out.support == [(0, 1)]
        assert out.coefficients[(0, 1)] == C12 - C11

    def test_quadratic_relation(self):
        # G = y1^2 - y1 y2, pivot (2,0): phi(2,0)=2c11, phi(1,1)=c11+c12,
        # so the surviving coefficient is (2c11 - c11 - c12)*(-1) = c12 - c11
        G = relation(1, (B11, B12), {(2, 0): ONE_ELEMENT, (1, 1): -ONE_ELEMENT})
        out = reduce_step(G, (2, 0), SPEC)
        assert out.support == [(1, 1)]
        assert out.coefficients[(1, 1)] == C12 - C11

    def test_support_too_small(self):
        G = relation(1, (B11, B12), {(1, 0): ONE_ELEMENT})
        with pytest.raises(SupportTooSmall):
            reduce_step(G, (1, 0), SPEC)

    def test_pivot_must_be_in_support(self):
        G = relation(1, (B11, B12), {(1, 0): ONE_ELEMENT, (0, 1): ONE_ELEMENT})
        with pytest.raises(ValueError):
            reduce_step(G, (2, 0), SPEC)

    def test_pivot_coefficient_is_exactly_cancelled(self):
        G = relation(
            1,
            (B11, B12),
            {(1, 0): ONE_ELEMENT, (0, 1): ONE_ELEMENT, (1, 1): 2 * ONE_ELEMENT},
        )
        out = reduce_step(G, (0, 1), SPEC)
        assert (0, 1) not in out.coefficients
        assert len(out.coefficients) == 2

    def test_soundness_reduction_preserves_vanishing(self):
        # G vanishes at the variables: y1*y2 - y2*y1 form via u-scaled copies
        u = parse_element("u[1][1]")
        G = relation(
            1,
            (u * B11, B11),
            {(1, 0): ONE_ELEMENT, (0, 1): -u},
        )
        assert G.evaluate().is_zero()
        # both vectors share the functional (same eigenvalue c11, constant
        # coefficients), so reduction cannot make progress here
        with pytest.raises(SupportTooSmall):
            reduce_step(G, (1, 0), SPEC)

    def test_reduced_value_is_phi_weighted(self):
        # G = y1 + y2 with pivot (0,1): survivor (phi(0,1)-phi(1,0)) y1
        G = relation(
            1,
            (B11, B12),
            {(1, 0): ONE_ELEMENT, (0, 1): ONE_ELEMENT},
        )
        out = reduce_step(G, (0, 1), SPEC)
        assert out.evaluate() == (C12 - C11) * B11

    def test_vanishing_relation_stays_vanishing(self):
        # two vanishing eigen-groups: (y2 - u y1) + (y4 - u' y3) = 0;
        # reducing with the lex-least pivot drops the second group entirely
        # and the result still evaluates to zero
        u, u2 = parse_element("u[1][1]"), parse_element("u[1][2]")
        variables = (B11, u * B11, B12, u2 * B12)
        G = relation(
            1,
            variables,
            {
                (0, 1, 0, 0): ONE_ELEMENT,
                (1, 0, 0, 0): -u,
                (0, 0, 0, 1): ONE_ELEMENT,
                (0, 0, 1, 0): -u2,
            },
        )
        assert G.evaluate().is_zero()
        out = reduce_step(G, (0, 0, 0, 1), SPEC)
        assert out.evaluate().is_zero()
        assert set(out.coefficients) == {(0, 1, 0, 0), (1, 0, 0, 0)}


class TestRunReduction:
    def test_full_support_collapses(self):
        support = {r: ONE_ELEMENT for r in degree_vectors(2, 2, include_zero=False)}
        G = relation(1, (B11, B12), support)
        trace = run_reduction(G, SPEC)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        assert len(trace.steps) == len(support) - 1
        sizes = [len(s.remaining_support) for s in trace.steps]
        assert sizes == sorted(sizes, reverse=True)  # strictly shrinking

    def test_pivot_is_lex_least(self):
        support = {r: ONE_ELEMENT for r in degree_vectors(2, 1, include_zero=False)}
        G = relation(1, (B11, B12), support)
        trace = run_reduction(G, SPEC)
        assert trace.steps[0].pivot == (0, 1)

    def test_invariant_monomial_branch(self):
        # duplicated variable: (1,0) and (0,1) share the functional c11
        G = relation(
            1, (B11, B11), {(1, 0): ONE_ELEMENT, (0, 1): -ONE_ELEMENT}
        )
        trace = run_reduction(G, SPEC)
        assert trace.verdict is Verdict.INVARIANT_MONOMIAL_FOUND
        assert trace.colliding_pair == ((0, 1), (1, 0))
        assert trace.invariant_exponent == (1, -1)
        assert trace.invariant_element == ONE_ELEMENT  # b11 / b11

    def test_trace_replay(self):
        support = {r: ONE_ELEMENT for r in degree_vectors(3, 2, include_zero=False)}
        G = relation(1, (B11, B12, B13), support)
        trace = run_reduction(G, SPEC)
        assert trace.replay(SPEC)

    def test_run_does_not_expand_coefficients(self, monkeypatch):
        # only replay re-executes the literal step
        def refuse(*args):
            raise AssertionError("run_reduction called reduce_step")

        monkeypatch.setattr(relations, "reduce_step", refuse)
        support = {r: ONE_ELEMENT for r in degree_vectors(3, 2, include_zero=False)}
        trace = run_reduction(relation(1, (B11, B12, B13), support), SPEC)
        assert len(trace.steps) == len(support) - 1
        assert "result" not in ReductionStep.__slots__

    @pytest.mark.parametrize("field_name", ["functionals", "remaining_support"])
    def test_replay_rejects_a_tampered_step(self, field_name):
        G = relation(2, tuple(SPEC.generators(2)), {(1, 0): B11, (0, 1): B11 * B12, (1, 1): B13})
        trace = run_reduction(G, SPEC)
        step = trace.steps[1]
        if field_name == "functionals":
            r = min(step.functionals)
            tampered = {**step.functionals, r: step.functionals[r] + ONE_ELEMENT}
        else:
            tampered = step.remaining_support + ((2, 2),)
        fields = {"functionals": step.functionals, "remaining_support": step.remaining_support}
        steps = (trace.steps[0], ReductionStep(step.pivot, **{**fields, field_name: tampered}))
        tampered_trace = ReductionTrace(
            trace.initial, steps, trace.verdict, trace.invariant_exponent,
            trace.invariant_element, trace.colliding_pair,
        )
        assert trace.replay(SPEC)
        assert not tampered_trace.replay(SPEC)

    def test_trace_json_is_deterministic(self):
        support = {r: ONE_ELEMENT for r in degree_vectors(2, 2, include_zero=False)}
        G = relation(1, (B11, B12), support)
        a = run_reduction(G, SPEC).to_json()
        b = run_reduction(G, SPEC).to_json()
        assert a == b
        doc = json.loads(a)
        assert doc["verdict"] == "NoNontrivialRelation"
        assert all(
            set(step) == {"pivot", "functionals", "eliminated_term", "remaining_support"}
            for step in doc["steps"]
        )


class TestCertifyIndependence:
    def test_two_generators_one_step(self):
        trace = certify_independence([B11, B12], 1, SPEC)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        assert len(trace.steps) == 1

    def test_three_generators_degree_two(self):
        trace = certify_independence([B11, B12, B13], 2, SPEC)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        assert trace.replay(SPEC)

    def test_duplicated_variable_degenerate(self):
        trace = certify_independence([B11, B11], 1, SPEC)
        assert trace.verdict is Verdict.DEGENERATE
        assert trace.colliding_pair is not None

    def test_a_constant_variable_infers_level_one(self):
        # no generator to take the level from: level 1, where the
        # eigenvalue of a constant is 0, the weight of the zero vector
        trace = certify_independence([C11], 1, SPEC)
        assert trace.initial.level == 1
        assert trace.verdict is Verdict.DEGENERATE and trace.colliding_pair == ((0,), (1,))
        assert trace.replay(SPEC)

    def test_level_two_generators(self):
        trace = certify_independence(SPEC.generators(2), 2, SPEC, level=2)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION

    def test_higher_level_variant_with_unit_coefficients(self):
        # coefficients that are generator monomials: their logD enters the
        # functional, the machinery stays exact; with three terms the carried
        # functionals gain logD of non-constant differences, and the literal
        # replay must agree with them
        for coeffs in (
            {(1, 0): B11, (0, 1): B11 * B12},
            {(1, 0): B11, (0, 1): B11 * B12, (1, 1): B13},
        ):
            G = relation(2, tuple(SPEC.generators(2)), coeffs)
            trace = run_reduction(G, SPEC)
            assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
            assert len(trace.steps) == len(coeffs) - 1
            assert trace.replay(SPEC)

    def test_degree_six_level_one_replays_literally(self, monkeypatch):
        # C(9, 3) - 1 = 83 terms; the Element replay, forced here, expands
        # every step's products of linear forms in c[1][.] (2.2 s on a 2-core
        # machine; following the support takes 8 ms)
        monkeypatch.setattr(relations, "_all_constant", lambda values: False)
        spec = build_spec((3,))
        trace = certify_independence(spec.generators(1), 6, spec)
        assert len(trace.steps) == 82
        assert trace.replay(spec)

    def test_degree_seven_level_one(self):
        # C(10, 3) - 1 = 119 terms, one eliminated per step; the replay of
        # this trace follows the support in 15 ms on a 2-core machine, the
        # Element replay takes 10 s and is not run here
        spec = build_spec((3,))
        trace = certify_independence(spec.generators(1), 7, spec)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        assert len(trace.steps) == 118
        assert trace.replay(spec)


class TestInvariantMonomial:
    def test_quotient_direction(self):
        G = relation(1, (B11, B12), {(1, 0): ONE_ELEMENT, (0, 1): ONE_ELEMENT})
        h = invariant_monomial(G, (1, 0), (0, 1), SPEC)
        assert h == B12 / B11
        assert logd(h, 1, SPEC) == C12 - C11

    def test_equal_vectors_rejected(self):
        G = relation(1, (B11, B12), {(1, 0): ONE_ELEMENT, (0, 1): ONE_ELEMENT})
        with pytest.raises(ValueError):
            invariant_monomial(G, (1, 0), (1, 0), SPEC)

    def test_singleton_eigen_equation(self):
        G = relation(2, (SPEC.generator(2, 1),), {(0,): ONE_ELEMENT, (1,): ONE_ELEMENT})
        h = invariant_monomial(G, (0,), (1,), SPEC)
        assert h == SPEC.generator(2, 1)
        assert logd(h, 2, SPEC) == SPEC.symbol(2, 1)


class TestSeriesRankCheck:
    def test_two_generators_full_rank(self):
        spec = build_spec((2,))
        ctx = SeriesContext.default(spec, order=8)  # c -> (2, 3)
        report = series_rank_check(spec.generators(1), 1, ctx, spec)
        assert report.rows == 3  # constant monomial included
        assert report.full_rank
        assert report.smallest_singular_value > 1e-6

    def test_duplicated_variable_rank_deficient(self):
        spec = build_spec((2,))
        ctx = SeriesContext.default(spec, order=8)
        b = spec.generator(1, 1)
        report = series_rank_check([b, b], 1, ctx, spec)
        assert not report.full_rank

    def test_truncation_too_short(self):
        spec = build_spec((2,))
        ctx = SeriesContext.default(spec, order=4)
        with pytest.raises(TruncationTooShort):
            series_rank_check(spec.generators(1), 3, ctx, spec)  # 10 rows > 4

    def test_oracle_soundness_full_rank_implies_symbolic_independence(self):
        # whenever the numeric oracle reports full rank the symbolic prover
        # must agree (the converse can fail at degenerate numeric values)
        spec = build_spec((3,))
        ctx = SeriesContext.default(spec, order=16)
        for m in (1, 2, 3):
            for d in (1, 2, 3):
                vars_ = spec.generators(1)[:m]
                if len(degree_vectors(m, d)) > ctx.order:
                    continue
                trace = certify_independence(vars_, d, spec)
                if series_rank_check(vars_, d, ctx, spec).full_rank:
                    assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION

    def test_agreement_under_q_linearly_independent_values(self):
        # (1, pi, pi^2) is Q-linearly independent and well separated, so
        # degree-2 functionals cannot collide and the two routes agree
        spec = build_spec((3,))
        values = tuple((("c", 1, j + 1), v) for j, v in enumerate((1.0, math.pi, math.pi**2)))
        ctx = SeriesContext(order=16, values=values)
        for m in (2, 3):
            vars_ = spec.generators(1)[:m]
            trace = certify_independence(vars_, 2, spec)
            assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
            assert series_rank_check(vars_, 2, ctx, spec).full_rank

    def test_known_collision_at_small_primes(self):
        # 2 + 3 = 5 makes b11*b12 and b13 the same exponential: the numeric
        # matrix is genuinely rank-deficient while the symbols stay independent
        spec = build_spec((3,))
        ctx = SeriesContext.default(spec, order=16)  # (2, 3, 5)
        trace = certify_independence(spec.generators(1), 2, spec)
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        assert not series_rank_check(spec.generators(1), 2, ctx, spec).full_rank


@pytest.mark.parametrize("seed", range(5))
def test_random_supports_collapse(seed):
    rng = random.Random(seed)
    pool = degree_vectors(2, 3, include_zero=False)
    support = rng.sample(pool, rng.randint(2, 6))
    G = relation(
        1,
        (B11, B12),
        {r: Element.from_rational(rng.randint(1, 5)) for r in support},
    )
    trace = run_reduction(G, SPEC)
    assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
    assert len(trace.steps) == len(support) - 1
    assert trace.replay(SPEC)


def _functionals_literal(G, spec):
    """The functionals with the eigenvalues and every r . lambda recomputed
    on each call: the reference for the weights shared across steps."""
    lams = tuple(logd(v, G.level, spec) for v in G.variables)
    return {
        r: (ZERO_ELEMENT if s.is_constant() else logd(s, G.level, spec)) + qlinear_dot(r, lams)
        for r, s in G.coefficients.items()
    }


LITERAL_CASES = {
    **{
        f"seeded m={m} #{k}": G
        for m in (2, 3) for k, G in enumerate(seeded_relations((B11, B12, B13)[:m], 10))
    },
    "level 2 two terms": relation(2, tuple(SPEC.generators(2)), {(1, 0): B11, (0, 1): B11 * B12}),
    "level 2 three terms": relation(
        2, tuple(SPEC.generators(2)), {(1, 0): B11, (0, 1): B11 * B12, (1, 1): B13}
    ),
}


@pytest.mark.parametrize("name", sorted(LITERAL_CASES))
def test_replay_functionals_match_the_literal_ones(name, monkeypatch):
    # the Element replay, forced: over the constants it is the reference
    # that tests/test_replay.py checks the support replay against
    monkeypatch.setattr(relations, "_all_constant", lambda values: False)
    trace = run_reduction(LITERAL_CASES[name], SPEC)
    seen = []
    real = MonomialRelation.functionals

    def spy(self, *args):
        phis = real(self, *args)
        seen.append((self, phis))
        return phis

    monkeypatch.setattr(MonomialRelation, "functionals", spy)
    assert trace.replay(SPEC)
    assert len(seen) == len(trace.steps) == len(LITERAL_CASES[name].coefficients) - 1
    for G, phis in seen:
        assert phis == _functionals_literal(G, SPEC)


def test_replay_computes_the_weights_itself(monkeypatch):
    # every weight off by one: the differences phi* - phi(r), hence the
    # expanded coefficients and supports, are unchanged; only the replay's
    # own comparison of the functionals can fail
    trace = certify_independence([B11, B12, B13], 2, SPEC)
    real = relations.qlinear_dot
    monkeypatch.setattr(relations, "qlinear_dot", lambda r, lams: real(r, lams) + ONE_ELEMENT)
    assert not trace.replay(SPEC)


def test_weights_are_computed_once_per_run_and_per_replay(monkeypatch):
    calls = []
    real = relations.qlinear_dot
    monkeypatch.setattr(relations, "qlinear_dot", lambda r, lams: calls.append(r) or real(r, lams))
    spec = build_spec((3,))
    trace = certify_independence(spec.generators(1), 5, spec)
    assert trace.replay(spec)
    # 55 support vectors, weighed once by the degeneracy check, whose
    # functionals the run reuses, and once by the replay (1,649 calls when
    # every replay step recomputed them)
    assert len(calls) == 2 * 55


def test_eigenvalues_are_cached_per_spec_and_equal_a_fresh_logd():
    spec = build_spec((3, 2))
    for level, variables in ((1, (B11, B12 * B13**2)), (2, tuple(spec.generators(2)))):
        G = relation(level, variables, {(1,) * len(variables): ONE_ELEMENT})
        first = G.eigenvalues(spec)
        assert G.eigenvalues(spec) is first
        fresh = build_spec((3, 2))
        assert first == tuple(logd(v, level, fresh) for v in variables)


def test_a_non_eigen_variable_raises_on_every_call():
    spec = build_spec((3,))
    G = relation(1, (B11, B11 + B12), {(1, 0): ONE_ELEMENT})
    for _ in range(2):
        with pytest.raises(ValueError, match="not an eigen-element"):
            G.eigenvalues(spec)
    assert not any(key[0] == "eigenvalues" for key in spec._caches)


def test_weights_over_the_constants_run_no_gcd():
    spec = build_spec((3,))
    G = relation(1, tuple(spec.generators(1)), dict.fromkeys(degree_vectors(3, 5), ONE_ELEMENT))
    G.eigenvalues(spec)
    with counting_cancel() as calls:
        weights = G.weights(spec)
    assert len(weights) == 56 and calls == []


def test_logd_of_the_variables_runs_once_per_spec_level_and_variables(monkeypatch):
    calls = []
    real = relations.logd
    monkeypatch.setattr(relations, "logd", lambda x, i, spec: calls.append((x, i)) or real(x, i, spec))
    # three specs, each with its own cache, two runs and replays on each
    for utype, level in (((3,), 1), ((3,), 1), ((1, 1, 3), 3)):
        spec = build_spec(utype)
        for _ in range(2):
            trace = certify_independence(spec.generators(level), 3, spec, level=level)
            assert trace.replay(spec)
    # constant coefficients take no logD, so every call is a variable's
    assert len(calls) == 3 * 3


def test_run_keeps_unchanged_functionals():
    # constant coefficients: phi* - phi(r) is constant, its logD is zero,
    # and every step carries the first step's functional objects
    trace = certify_independence([B11, B12, B13], 3, SPEC)
    first = trace.steps[0].functionals
    assert all(phi is first[r] for step in trace.steps for r, phi in step.functionals.items())


# sha256 prefixes of to_json for traces whose bytes must never change: the
# reduction carries only the functionals, and the trace is the same as when
# every intermediate relation was expanded
TRACE_DIGESTS = {
    "(3,) m=1 d=1": "acd0d1701237f0f7",
    "(3,) m=1 d=2": "6ab3129734554ab1",
    "(3,) m=1 d=3": "4d7143fd741b8e9c",
    "(3,) m=1 d=4": "5ad84001a48439d9",
    "(3,) m=1 d=5": "72c193aed6882fdf",
    "(3,) m=2 d=1": "8a6f1f1c95e6336c",
    "(3,) m=2 d=2": "0449aaad3f164d71",
    "(3,) m=2 d=3": "59ab32aafa8c8dbe",
    "(3,) m=2 d=4": "10d9b7b990ab5f79",
    "(3,) m=2 d=5": "bb07fa4f51401bca",
    "(3,) m=3 d=1": "7b4ae2c4793ccf2a",
    "(3,) m=3 d=2": "d85b19c7942070e8",
    "(3,) m=3 d=3": "eae2ba3dd7ae2e98",
    "(3,) m=3 d=4": "1cc2fac672152f53",
    "(3,) m=3 d=5": "21886b25256a2a4c",
    "(3, 3) level=2 d=1": "3b5e91085ae2cab6",
    "(3, 3) level=2 d=2": "f5ef7b95f00e314e",
    "(3, 3) level=2 d=3": "17f6a8caa9d593f7",
    "(1, 1, 3) level=3 d=1": "842440991c21e390",
    "(1, 1, 3) level=3 d=2": "365f070901faf5f0",
    "(1, 1, 3) level=3 d=3": "68cc4abe41e917e4",
    "duplicated b[1][1] d=1": "22bf2f75e5557eb9",
    "duplicated b[1][1] d=2": "b3faf5c8ce943174",
    "invariant monomial": "da46129d345521b6",
    "level 2 two terms": "d8b8b3e1d7e5bed7",
    "level 2 three terms": "9f43c1074979e5ab",
}


def _certify_at(utype, m, d, level):
    spec = build_spec(utype)
    return lambda: certify_independence(spec.generators(level)[:m], d, spec, level=level)


def _reduce_at_level_2(coeffs):
    return lambda: run_reduction(relation(2, tuple(SPEC.generators(2)), coeffs), SPEC)


PINNED_TRACES = {
    **{f"(3,) m={m} d={d}": _certify_at((3,), m, d, 1) for m in (1, 2, 3) for d in range(1, 6)},
    **{f"(3, 3) level=2 d={d}": _certify_at((3, 3), 3, d, 2) for d in (1, 2, 3)},
    **{f"(1, 1, 3) level=3 d={d}": _certify_at((1, 1, 3), 3, d, 3) for d in (1, 2, 3)},
    "duplicated b[1][1] d=1": lambda: certify_independence([B11, B11], 1, SPEC),
    "duplicated b[1][1] d=2": lambda: certify_independence([B11, B11], 2, SPEC),
    "invariant monomial": lambda: run_reduction(
        relation(1, (B11, B11), {(1, 0): ONE_ELEMENT, (0, 1): -ONE_ELEMENT}), SPEC
    ),
    "level 2 two terms": _reduce_at_level_2({(1, 0): B11, (0, 1): B11 * B12}),
    "level 2 three terms": _reduce_at_level_2({(1, 0): B11, (0, 1): B11 * B12, (1, 1): B13}),
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_trace_json_unchanged(name):
    text = PINNED_TRACES[name]().to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == TRACE_DIGESTS[name], text


def _benchmark_like_family(spec):
    """Level-1 relations like the prover benchmark's seeded ones, all on one
    spec: m = 2 and 3 variables in turn, supports of 2..6 vectors of degree
    <= 3 and coefficients 1..5."""
    rng = random.Random("benchmark-like family")
    for k in range(200):
        m = 2 + k % 2
        support = rng.sample(degree_vectors(m, 3, include_zero=False), 2 + k % 5)
        coeffs = {r: Element.from_rational(rng.randint(1, 5)) for r in support}
        yield relation(1, spec.generators(1)[:m], coeffs)


def test_a_seeded_family_on_one_spec_is_pinned():
    # the relations share a spec, so all but the first few read their
    # weights from tables that earlier relations filled
    spec = build_spec((3,))
    texts = []
    for G in _benchmark_like_family(spec):
        trace = run_reduction(G, spec)
        assert trace.replay(spec)
        texts.append(trace.to_json())
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == "fe5edaacac3c2337"


def _warm_spec_cases(spec):
    """Three overlapping pairs of level-1 generators, each over every
    nonzero vector of degree <= 3, then one level-2 relation with
    non-constant coefficients."""
    b1, b2 = spec.generators(1), spec.generators(2)
    full = dict.fromkeys(degree_vectors(2, 3, include_zero=False), ONE_ELEMENT)
    cases = [relation(1, (b1[j], b1[k]), full) for j, k in ((0, 1), (1, 2), (0, 2))]
    level_2 = {(1, 0, 0): b1[0], (0, 1, 0): b1[0] * b1[1], (0, 0, 2): ONE_ELEMENT}
    return cases + [relation(2, b2, level_2)]


def test_warm_spec_runs_equal_fresh_spec_runs(monkeypatch):
    # one spec for every relation, so each reads the weight table of its
    # level and variables that earlier runs left; each must equal a run on
    # a fresh spec
    spec = build_spec((3, 3))
    cases = _warm_spec_cases(spec)
    for k, G in enumerate(cases):
        fresh = build_spec((3, 3))
        expected = run_reduction(_warm_spec_cases(fresh)[k], fresh).to_json()
        trace = run_reduction(G, spec)
        assert trace.to_json() == expected and trace.replay(spec)
    # the variables of the first case are no eigen-elements at level 2
    with pytest.raises(ValueError, match="not an eigen-element"):
        run_reduction(relation(2, cases[0].variables, cases[0].coefficients), spec)
    tables = {key for key in spec._caches if key[0] == "weights"}
    assert tables == {("weights", G.level, G.variables) for G in cases}
    calls = []
    real = relations.qlinear_dot
    monkeypatch.setattr(relations, "qlinear_dot", lambda r, lams: calls.append(r) or real(r, lams))
    for G in _warm_spec_cases(spec):
        trace = run_reduction(G, spec)
        assert calls == []
        # the replay weighs every support vector itself
        assert trace.replay(spec) and sorted(calls) == G.support
        calls.clear()
