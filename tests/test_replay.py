"""``ReductionTrace.replay`` and ``run_reduction`` on both of their paths.

With constant coefficients the replay follows the support alone, each
step dropping the pivot and every vector of the pivot's weight; any other
relation steps on ``Element``s, the literal reference.  Here the two must
agree on every trace, a tampered, truncated or relabelled trace must
replay False on both paths, and a run over the constants must write the
trace that the general loop of functionals writes.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from deltatower import Verdict, build_spec, certify_independence, reduce_step, run_reduction
from deltatower import relations
from deltatower.elements import Element, ONE_ELEMENT, ZERO_ELEMENT
from deltatower.relations import (
    MonomialRelation,
    ReductionStep,
    ReductionTrace,
    degree_vectors,
)
from deltatower.textio import parse_element
from deltatower.tower import logd

from _support import seeded_relations

SPEC = build_spec((3,))
B11, B12, B13 = SPEC.generators(1)
U11 = parse_element("u[1][1]")  # a constant: its eigenvalue is the zero form


def relation(level, variables, coeffs):
    return MonomialRelation(level, tuple(variables), dict(coeffs))


def retrace(trace, **fields):
    """trace with some of its fields replaced."""
    names = ReductionTrace.__slots__
    return ReductionTrace(**{name: getattr(trace, name) for name in names} | fields)


@contextmanager
def support_replays():
    """Records the final support of every replay inside that follows the
    support alone."""
    finals = []
    real = relations._replay_support
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_replay_support", lambda *a: finals.append(real(*a)) or finals[-1])
        yield finals


@contextmanager
def general_paths():
    """Every replay inside steps on Elements, and every run carries its
    functionals through the general loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_all_constant", lambda values: False)
        yield


def both_replays(trace, spec):
    """(support, literal) replay results; the first must follow the support
    unless the verdict is Degenerate, which steps on neither."""
    with support_replays() as finals:
        support = trace.replay(spec)
    assert len(finals) == (trace.verdict is not Verdict.DEGENERATE)
    with general_paths():
        literal = trace.replay(spec)
    return support, literal


def _certify_at(utype, d, level, m=3):
    spec = build_spec(utype)
    return lambda: (certify_independence(spec.generators(level)[:m], d, spec, level=level), spec)


AGREEMENT_CASES = {
    **{f"(3,) m={m} d={d}": _certify_at((3,), d, 1, m) for m in (1, 2, 3) for d in range(1, 5)},
    **{f"(3, 3) level=2 d={d}": _certify_at((3, 3), d, 2) for d in (1, 2, 3)},
    **{f"(1, 1, 3) level=3 d={d}": _certify_at((1, 1, 3), d, 3) for d in (1, 2, 3)},
    # the seeded relations of test_relations' LITERAL_CASES
    **{
        f"seeded m={m} #{k}": (lambda G=G: (run_reduction(G, SPEC), SPEC))
        for m in (2, 3) for k, G in enumerate(seeded_relations((B11, B12, B13)[:m], 10))
    },
    "duplicated b[1][1] d=2": lambda: (certify_independence([B11, B11], 2, SPEC), SPEC),
    "duplicated b[1][1] invariant": lambda: (
        run_reduction(relation(1, (B11, B11), {(1, 0): ONE_ELEMENT, (0, 1): -ONE_ELEMENT}), SPEC),
        SPEC,
    ),
    # fractional coefficients and eigenvalues c11 + c12, 2 c13 - c11, c12
    "fractions": lambda: (
        run_reduction(
            relation(1, (B11 * B12, B13**2 / B11, B12), {
                (1, 0, 0): Element.from_rational(Fraction(3, 4)),
                (0, 1, 1): Element.from_rational(-2),
                (1, 1, 0): Element.from_rational(Fraction(-5, 6)),
                (0, 0, 2): Element.from_rational(7),
                (2, 0, 1): Element.from_rational(Fraction(1, 9)),
            }),
            SPEC,
        ),
        SPEC,
    ),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_packed_and_literal_replays_agree(name):
    trace, spec = AGREEMENT_CASES[name]()
    assert both_replays(trace, spec) == (True, True)
    if trace.steps:
        truncated = retrace(trace, steps=trace.steps[:-1])
        assert both_replays(truncated, spec) == (False, False)


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_a_run_over_the_constants_writes_the_general_trace(name):
    trace, _ = AGREEMENT_CASES[name]()
    with general_paths():
        general, _ = AGREEMENT_CASES[name]()
    assert trace.to_json() == general.to_json()


def test_one_constant_symbol():
    # eigenvalue c11 alone: every weight a multiple of c11
    for d in (1, 2, 5):
        trace = certify_independence([B11], d, SPEC)
        assert len(trace.steps) == d - 1
        assert both_replays(trace, SPEC) == (True, True)
    G = relation(1, (B11**2,), {(1,): Element.from_rational(3), (3,): Element.from_rational(-2),
                                (4,): Element.from_rational(Fraction(1, 2))})
    trace = run_reduction(G, SPEC)
    assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
    assert both_replays(trace, SPEC) == (True, True)


def test_a_zero_linear_form():
    # u[1][1] is constant: its eigenvalue is 0, so (0,1) and (0,2) share
    # the weight 0 and the step with pivot (0,1) drops (0,2) on both paths
    G = relation(1, (B11, U11), {(0, 1): ONE_ELEMENT, (1, 0): ONE_ELEMENT, (0, 2): ONE_ELEMENT})
    assert G.eigenvalues(SPEC) == (parse_element("c[1][1]"), ZERO_ELEMENT)
    trace = run_reduction(G, SPEC)
    assert trace.verdict is Verdict.INVARIANT_MONOMIAL_FOUND
    assert both_replays(trace, SPEC) == (True, True)
    after = reduce_step(G, (0, 1), SPEC)
    assert after.support == [(1, 0)]
    phis = G.functionals(SPEC)
    step = ReductionStep((0, 1), phis, ((1, 0),))
    forged = ReductionTrace(G, (step,), Verdict.NO_NONTRIVIAL_RELATION)
    assert both_replays(forged, SPEC) == (True, True)


def test_no_symbols_at_all():
    # every eigenvalue the zero form: any step zeroes every coefficient,
    # which neither path accepts as a step
    G = relation(1, (U11,), {(1,): ONE_ELEMENT, (2,): ONE_ELEMENT})
    assert G.eigenvalues(SPEC) == (ZERO_ELEMENT,)
    trace = run_reduction(G, SPEC)
    assert trace.verdict is Verdict.INVARIANT_MONOMIAL_FOUND and not trace.steps
    assert both_replays(trace, SPEC) == (True, True)
    forged = ReductionTrace(
        G, (ReductionStep((1,), G.functionals(SPEC), ((2,),)),), Verdict.NO_NONTRIVIAL_RELATION
    )
    assert both_replays(forged, SPEC) == (False, False)


def test_relations_off_the_constants_step_on_elements():
    # a constant-symbol coefficient is constant, so its replay follows the
    # support and agrees with the Element replay; a generator coefficient
    # keeps the Element path
    G = relation(1, (B11, B12), {(1, 0): parse_element("c[1][2]"), (0, 1): ONE_ELEMENT})
    trace = run_reduction(G, SPEC)
    assert both_replays(trace, SPEC) == (True, True)
    G = relation(1, (B11, B12), {(1, 0): B13, (0, 1): ONE_ELEMENT})
    trace = run_reduction(G, SPEC)
    with support_replays() as finals:
        assert trace.replay(SPEC)
    assert finals == []


def test_a_certificate_and_its_replay_multiply_nothing():
    # over the constants a run restricts its functionals and a replay its
    # support: no Element difference, product or logD once the eigenvalues
    # are cached
    spec = build_spec((3,))
    variables = spec.generators(1)
    MonomialRelation(1, tuple(variables), {(1, 1, 1): ONE_ELEMENT}).eigenvalues(spec)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__sub__", "__mul__"):
            real = getattr(Element, name)
            mp.setattr(Element, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        mp.setattr(relations, "logd", lambda *a: calls.append("logd") or logd(*a))
        trace = certify_independence(variables, 4, spec)
        assert trace.replay(spec)
    assert len(trace.steps) == 33
    assert calls == []


# --- the end state ----------------------------------------------------------

FULL = certify_independence([B11, B12, B13], 2, SPEC)  # 9 terms, 8 steps


def test_the_full_trace_replays():
    assert len(FULL.steps) == 8
    assert both_replays(FULL, SPEC) == (True, True)


def test_a_truncated_trace_fails():
    assert both_replays(retrace(FULL, steps=FULL.steps[:2]), SPEC) == (False, False)


def test_a_multi_term_relation_with_no_steps_fails():
    assert both_replays(retrace(FULL, steps=()), SPEC) == (False, False)


@pytest.mark.parametrize("pair", [None, "survivor and a pivot"])
def test_a_full_trace_relabelled_invariant_fails(pair):
    trace = certify_independence(SPEC.generators(1), 2, SPEC)
    if pair is not None:
        pair = (trace.steps[0].pivot, trace.steps[-1].remaining_support[0])
    relabelled = retrace(
        trace, verdict=Verdict.INVARIANT_MONOMIAL_FOUND, colliding_pair=pair,
        invariant_exponent=pair and tuple(b - a for a, b in zip(*pair)),
    )
    assert both_replays(relabelled, SPEC) == (False, False)


# (0,1,0) and (1,0,0) share the weight c11; over the constants a collision
# is there from the start, so the run takes no step
INVARIANT = run_reduction(relation(1, (B11, B11, B12), {
    (0, 0, 1): ONE_ELEMENT, (0, 1, 0): ONE_ELEMENT, (1, 0, 0): Element.from_rational(-2),
}), SPEC)


def test_an_invariant_trace_replays():
    assert INVARIANT.verdict is Verdict.INVARIANT_MONOMIAL_FOUND and not INVARIANT.steps
    assert INVARIANT.colliding_pair == ((0, 1, 0), (1, 0, 0))
    assert INVARIANT.invariant_exponent == (1, -1, 0)
    assert both_replays(INVARIANT, SPEC) == (True, True)


@pytest.mark.parametrize("change", ["exponent", "pair outside", "unequal pair", "one vector"])
def test_a_wrong_invariant_end_state_fails(change):
    r1, r2 = INVARIANT.colliding_pair
    fields = {
        "exponent": {"invariant_exponent": (0, 1, -1)},
        "pair outside": {"colliding_pair": (r1, (2, 0, 0)), "invariant_exponent": (2, -1, 0)},
        "unequal pair": {"colliding_pair": ((0, 0, 1), r2), "invariant_exponent": (1, 0, -1)},
        "one vector": {"colliding_pair": (r1, r1), "invariant_exponent": (0, 0, 0)},
    }[change]
    assert both_replays(retrace(INVARIANT, **fields), SPEC) == (False, False)


def test_an_invariant_over_generator_coefficients_steps_on_elements():
    # the functionals logD_2(b[1][1]) + c[2][1] of (0,1,0) and (1,0,0) are equal
    spec = build_spec((3, 2))
    b11, b21, b22 = spec.generator(1, 1), spec.generator(2, 1), spec.generator(2, 2)
    G = relation(2, (b21, b21, b22), {(1, 0, 0): b11, (0, 1, 0): -b11, (0, 0, 1): b11 * b11})
    trace = run_reduction(G, spec)
    assert trace.verdict is Verdict.INVARIANT_MONOMIAL_FOUND
    with support_replays() as finals:
        assert trace.replay(spec)
        assert not retrace(trace, invariant_exponent=(-1, 1, 0)).replay(spec)
        assert not retrace(trace, colliding_pair=((0, 0, 1), (1, 0, 0))).replay(spec)
    assert finals == []


def test_degenerate_traces():
    dup = certify_independence([B11, B11], 1, SPEC)
    assert dup.verdict is Verdict.DEGENERATE and dup.replay(SPEC)
    # the zero vector that certify_independence adds may be in the pair
    const = certify_independence([U11, B11], 1, SPEC)
    assert const.verdict is Verdict.DEGENERATE
    assert const.colliding_pair == ((0, 0), (1, 0))
    assert const.replay(SPEC)
    wrong = {
        "with a step": retrace(dup, steps=FULL.steps[:1]),
        "unequal weights": retrace(const, colliding_pair=((0, 0), (0, 1))),
        "outside the support": retrace(dup, colliding_pair=((0, 1), (2, 0))),
        "no pair": retrace(dup, colliding_pair=None),
        "relabelled": retrace(
            FULL, verdict=Verdict.DEGENERATE, colliding_pair=((1, 0, 0), (0, 1, 0))
        ),
    }
    for name, trace in wrong.items():
        assert not trace.replay(SPEC), name


# --- tampered steps over the constants --------------------------------------


def _tampered(kind):
    steps = list(FULL.steps)
    step = steps[2]
    if kind == "swapped pivot":
        other = step.remaining_support[0]
        steps[2] = ReductionStep(other, step.functionals, step.remaining_support)
    elif kind == "functional changed":
        r = max(step.functionals)
        phis = {**step.functionals, r: step.functionals[r] + ONE_ELEMENT}
        steps[2] = ReductionStep(step.pivot, phis, step.remaining_support)
    elif kind == "extra remaining":
        extra = step.remaining_support + ((3, 0, 0),)
        steps[2] = ReductionStep(step.pivot, step.functionals, extra)
    elif kind == "reordered remaining":
        steps[2] = ReductionStep(step.pivot, step.functionals, step.remaining_support[::-1])
    elif kind == "dropped middle step":
        del steps[2]
    elif kind == "step past the survivor":  # it leaves no vector, so no step
        (r,) = steps[-1].remaining_support
        steps.append(ReductionStep(r, {r: steps[-1].functionals[r]}, ()))
    else:  # dropped last step
        del steps[-1]
    return retrace(FULL, steps=tuple(steps))


def test_a_pivot_outside_the_support_fails_on_elements():
    # a generator coefficient keeps the Element path, whose first guard is
    # that the step's pivot is in the support
    G = relation(1, (B11, B12), {(1, 0): B13, (0, 1): ONE_ELEMENT})
    trace = run_reduction(G, SPEC)
    step = trace.steps[0]
    tampered = retrace(trace, steps=(ReductionStep((3, 0), step.functionals, step.remaining_support),))
    with support_replays() as finals:
        assert trace.replay(SPEC) and not tampered.replay(SPEC)
    assert finals == [] and len(trace.steps) == 1


@pytest.mark.parametrize("kind", [
    "swapped pivot", "functional changed", "extra remaining", "reordered remaining",
    "dropped middle step", "dropped last step", "step past the survivor",
])
def test_a_tampered_constant_trace_fails(kind):
    assert both_replays(_tampered(kind), SPEC) == (False, False)


# --- drawn supports ---------------------------------------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from _support import rationals  # noqa: E402

# eigenvalues c11, c12, c13, c11 + c12, 2 c13 - c11 and 0: drawn variables
# may share or combine to a weight, so every verdict of run_reduction occurs
POOL = (B11, B12, B13, B11 * B12, B13**2 / B11, U11)


# constant coefficients times a rational: the rational ones, and ones
# with constant symbols in the numerator or the denominator
CONSTANTS = tuple(map(parse_element, ("1", "c[1][2]", "c[1][1]/c[1][3]", "u[1][1]")))


@st.composite
def relations_over_the_constants(draw):
    indices = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=3))
    m = len(indices)
    vectors = st.sampled_from(degree_vectors(m, 3))
    support = draw(st.lists(vectors, min_size=1, max_size=8, unique=True))
    coeffs = [draw(st.sampled_from(CONSTANTS)) * draw(rationals.filter(bool)) for _ in support]
    return relation(1, [POOL[i] for i in indices], dict(zip(support, coeffs)))


@settings(max_examples=60)
@given(relations_over_the_constants(), st.integers(0, 3))
def test_drawn_relations_agree(G, cut):
    trace = run_reduction(G, SPEC)
    assert both_replays(trace, SPEC) == (True, True)
    # over the constants an invariant is found before any step
    if trace.steps:
        assert trace.verdict is Verdict.NO_NONTRIVIAL_RELATION
        truncated = retrace(trace, steps=trace.steps[: max(0, len(trace.steps) - 1 - cut)])
        assert both_replays(truncated, SPEC) == (False, False)
