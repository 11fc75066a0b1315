"""The package's records: which fields they compare and hash, and which
ones refuse assignment; copies and pickles equal the original."""

import copy
import pickle

import pytest

from deltatower.cli import RunReport
from deltatower.elements import ONE_ELEMENT
from deltatower.grid import GridModel, analysis_by_reductions
from deltatower.gridcheck import PropertyReport
from deltatower.operators import build_E, decompose, expand, logd_system
from deltatower.relations import (
    MonomialRelation,
    ReductionStep,
    ReductionTrace,
    certify_independence,
)
from deltatower.series import RankReport, SeriesContext
from deltatower.tower import TowerSpec, build_spec

SPEC = build_spec((2, 1))
B11, B12 = SPEC.generators(1)
C11 = SPEC.symbol(1, 1)


def _frozen_records():
    """(record, the names it refuses to assign) for every frozen record."""
    op = build_E(SPEC, 1)
    trace = certify_independence(SPEC.generators(1), 2, SPEC, level=1)
    g = GridModel(2, 2)
    return [
        (TowerSpec((2, 1)), ("ranks", "assignments", "_caches")),
        (SeriesContext.default(SPEC, order=8), ("order", "values")),
        (op, ("level", "eigenvalues")),
        (expand(op), ("level", "coefficients")),
        (decompose(SPEC.e(1), 1, SPEC), ("level", "components")),
        (logd_system(2, 0), ("n", "h")),
        (trace.initial, ("level", "variables", "coefficients")),
        (trace.steps[0], ("pivot", "functionals", "remaining_support")),
        (trace, ("initial", "steps", "verdict", "invariant_exponent", "invariant_element",
                 "colliding_pair")),
        (RankReport(rows=3, order=8, smallest_singular_value=0.5, rank=3),
         ("rows", "order", "smallest_singular_value", "rank")),
        (g, ("depth", "columns")),
        (analysis_by_reductions(frozenset({(2, 1)}), frozenset(), g),
         ("grid", "base", "target", "steps")),
    ]


def _refuses_assignment(record, names):
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("index", range(12))
def test_frozen_records_refuse_assignment(index):
    record, names = _frozen_records()[index]
    _refuses_assignment(record, names)
    assert hash(record) == hash(record)


def test_reports_refuse_assignment():
    report = PropertyReport("p", 3, True)
    assert report.counterexample is None
    assert report == PropertyReport("p", 3, True, None) != PropertyReport("p", 3, False)
    run = RunReport("grid verify", ("grid", "verify"))
    run.checks.append(("a", "PASS", None))  # a run appends its checks in place
    assert run == RunReport("grid verify", ("grid", "verify"), [("a", "PASS", None)])
    assert run != RunReport("grid verify", ("grid", "verify"))
    for record in (report, run):
        _refuses_assignment(record, record.__slots__)


def test_spec_equality_and_hash_ignore_the_caches():
    warm, cold = TowerSpec((2, 1)), TowerSpec(ranks=[2, 1])
    warm.e(1)
    SeriesContext.default(warm, order=8)
    assert warm._caches and not cold._caches
    assert warm == cold and hash(warm) == hash(cold) and cold.ranks == (2, 1)
    assert TowerSpec((2, 1), (("c[1][1]", "7"),)) != cold
    assert TowerSpec((1, 2)) != cold


def test_default_context_is_the_cached_object():
    spec = TowerSpec((2,))
    ctx = SeriesContext.default(spec, order=8)
    assert spec._caches[("default", 8)] is ctx is SeriesContext.default(spec, 8)
    assert ctx == SeriesContext(8, ctx.values) and hash(ctx) == hash(SeriesContext(8, ctx.values))


def test_relation_equality_and_hash_ignore_the_coefficients():
    one = MonomialRelation(1, (B11, B12), {(1, 0): ONE_ELEMENT})
    other = MonomialRelation(level=1, variables=(B11, B12), coefficients={(0, 2): C11})
    assert one == other and hash(one) == hash(other)
    assert one != MonomialRelation(2, (B11, B12), {(1, 0): ONE_ELEMENT})
    assert one != MonomialRelation(1, (B12, B11), {(1, 0): ONE_ELEMENT})


def test_step_equality_and_hash_ignore_the_functionals():
    one = ReductionStep((1, 0), {(1, 0): C11}, ((0, 1),))
    other = ReductionStep(pivot=(1, 0), functionals={}, remaining_support=((0, 1),))
    assert one == other and hash(one) == hash(other)
    assert one != ReductionStep((1, 0), {(1, 0): C11}, ((0, 2),))
    assert ReductionStep((1, 0), {}).remaining_support == ()


def test_records_of_different_classes_differ():
    assert GridModel(1, 2) != (1, 2)
    assert RankReport(3, 8, 0.5, 3) != (3, 8, 0.5, 3)
    assert len({GridModel(1, 2), GridModel(1, 2), GridModel(2, 1)}) == 2


@pytest.mark.parametrize("index", range(12))
def test_frozen_records_copy_and_pickle(index):
    record, names = _frozen_records()[index]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
        assert all(getattr(twin, name) == getattr(record, name) for name in names if name[0] != "_")
        with pytest.raises(AttributeError):
            setattr(twin, names[0], None)


def test_the_constructor_refuses_a_missing_an_unknown_and_a_repeated_field():
    for make, word in (
        (lambda: RankReport(3, 8, 0.5), "missing the field 'rank'"),
        (lambda: ReductionStep(functionals={}), "missing the field 'pivot'"),
        (lambda: RankReport(3, 8, 0.5, 3, 9), "takes 4 fields, not 5"),
        (lambda: RankReport(3, 8, 0.5, rank=3, colour=1), "unknown field 'colour'"),
        (lambda: RankReport(3, 8, 0.5, 3, rank=3), "repeated field 'rank'"),
        (lambda: PropertyReport("p", 3, True, None, counterexample="x"), "repeated field"),
    ):
        with pytest.raises(TypeError, match=word):
            make()
    assert RankReport(3, 8, smallest_singular_value=0.5, rank=3) == RankReport(3, 8, 0.5, 3)


def test_defaults_fill_the_trailing_fields_of_a_trace():
    # ReductionStep's and PropertyReport's are checked with their equality above
    trace = certify_independence(SPEC.generators(1), 2, SPEC, level=1)
    bare = ReductionTrace(trace.initial, trace.steps, trace.verdict)
    assert (bare.invariant_exponent, bare.invariant_element, bare.colliding_pair) == (None, None, None)
    named = ReductionTrace(trace.initial, trace.steps, trace.verdict, colliding_pair=((1, 0), (0, 1)))
    assert named.colliding_pair == ((1, 0), (0, 1)) and named.invariant_exponent is None
