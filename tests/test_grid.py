"""Grid pregeometry: closure, rank, internality, analyses, constructions."""

from itertools import combinations_with_replacement, product

import pytest

from deltatower import (
    Analysis,
    GridModel,
    NotMonotone,
    analysis_by_coreductions,
    analysis_by_reductions,
    build_seqred_a,
    build_seqred_b,
    closure,
    coreduction,
    internal,
    is_canonical,
    is_incompressible,
    is_minimal,
    reduction,
    urank,
)
from deltatower.grid import _cored_chain, from_heights, height_chains
from deltatower.gridcheck import _models, _pairs_closed

G22 = GridModel(2, 2)
EMPTY = frozenset()


def cells(*pairs):
    return frozenset(pairs)


class TestClosure:
    def test_column_chain(self):
        g = GridModel(3, 1)
        assert closure(cells((3, 1)), g) == cells((1, 1), (2, 1), (3, 1))

    def test_empty(self):
        assert closure(EMPTY, G22) == EMPTY

    def test_mixed_columns(self):
        assert closure(cells((2, 1), (1, 2)), G22) == cells((1, 1), (2, 1), (1, 2))

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            closure(cells((3, 1)), G22)


class TestUrank:
    def test_column_depth(self):
        for n in range(1, 5):
            g = GridModel(n, 1)
            assert urank(cells((n, 1)), EMPTY, g) == n

    def test_over_self(self):
        S = cells((2, 1))
        assert urank(S, S, G22) == 0

    def test_additivity_spot(self):
        A, B, T = cells((2, 1)), cells((1, 2)), cells((1, 1))
        lhs = urank(A | B, T, G22)
        rhs = urank(A, T | B, G22) + urank(B, T, G22)
        assert lhs == rhs


class TestInternal:
    def test_row_one_is_internal(self):
        assert internal(cells((1, 2)), EMPTY, G22)

    def test_depth_two_is_not(self):
        assert not internal(cells((2, 1)), EMPTY, G22)

    def test_one_step_above_base(self):
        g = GridModel(3, 1)
        assert internal(cells((3, 1)), cells((2, 1)), g)


class TestReduction:
    def test_example_pair(self):
        S = cells((2, 1), (1, 2))
        assert reduction(S, EMPTY, G22) == cells((1, 1), (1, 2))

    def test_internal_set_is_a_fixed_point(self):
        S = cells((1, 1), (1, 2))
        assert reduction(S, EMPTY, G22) == closure(S, G22)

    def test_deep_column_keeps_only_the_base_row(self):
        g = GridModel(3, 1)
        assert reduction(cells((3, 1)), EMPTY, g) == cells((1, 1))


class TestCoreduction:
    def test_example_pair(self):
        S = cells((2, 1), (1, 2))
        assert coreduction(S, EMPTY, G22) == cells((1, 1))

    def test_column_drops_one_level(self):
        g = GridModel(4, 1)
        for i in (1, 2, 3, 4):
            expected = frozenset((k, 1) for k in range(1, i))
            assert coreduction(cells((i, 1)), EMPTY, g) == expected

    def test_internal_needs_no_witness(self):
        assert coreduction(cells((1, 1)), EMPTY, G22) == EMPTY


def test_coreduction_chain_refuses_a_step_that_does_not_shrink():
    # a base above the target: the step back to it would grow the closure
    with pytest.raises(RuntimeError, match="strictly shrink"):
        _cored_chain((2,), (1,))


class TestAnalyses:
    def test_section_example_reductions(self):
        S = cells((2, 1), (1, 2))
        a = analysis_by_reductions(S, EMPTY, G22)
        a.validate()
        assert a.utype() == (2, 1)
        assert a.steps[0] == (1, 1)

    def test_section_example_coreductions(self):
        S = cells((2, 1), (1, 2))
        a = analysis_by_coreductions(S, EMPTY, G22)
        a.validate()
        assert a.utype() == (1, 2)
        assert a.steps[0] == (1, 0)

    def test_example_analyses_not_interalgebraic_no_canonical(self):
        S = cells((2, 1), (1, 2))
        ar = analysis_by_reductions(S, EMPTY, G22)
        ac = analysis_by_coreductions(S, EMPTY, G22)
        assert ar.steps != ac.steps
        assert is_minimal(ar) and is_minimal(ac)
        assert not is_canonical(ar) and not is_canonical(ac)

    def test_single_column_chain(self):
        g = GridModel(3, 1)
        S = cells((3, 1))
        ar = analysis_by_reductions(S, EMPTY, g)
        ac = analysis_by_coreductions(S, EMPTY, g)
        assert ar.utype() == ac.utype() == (1, 1, 1)
        assert ar.steps == ac.steps
        assert is_canonical(ar)
        assert is_incompressible(ar)

    def test_internal_target_single_step(self):
        S = cells((1, 1), (1, 2))
        a = analysis_by_reductions(S, EMPTY, G22)
        assert a.length == 1 and a.utype() == (2,)

    def test_trivial_target_empty_analysis(self):
        a = analysis_by_reductions(EMPTY, cells((1, 1)), G22)
        assert a.length == 0
        a.validate()
        assert is_minimal(a)

    def test_staircase_incompressible_but_not_minimal(self):
        a = Analysis(G22, (0, 0), (2, 2), ((1, 0), (2, 1), (2, 2)))
        a.validate()
        assert a.utype() == (1, 2, 1)
        assert is_incompressible(a)
        assert not is_minimal(a)
        assert not is_canonical(a)

    def test_is_canonical_matches_the_two_search_definition(self):
        # one closed pair per column orbit of every grid with at most 7
        # cells; the reference is the literal definition, minimal (no
        # shorter analysis) and equal to every analysis of its length
        def reference(a):
            chains = height_chains(a.base, a.target, max_length=a.length)
            return is_minimal(a) and all(tuple(other) == a.steps for other in chains)

        for g in _models(7):
            for t_h, g_h, _ in _pairs_closed(g):
                T, G = from_heights(t_h, g), from_heights(g_h, g)
                ar = analysis_by_reductions(G, T, g)
                ac = analysis_by_coreductions(G, T, g)
                for a in (ar, ac):
                    assert is_canonical(a) == reference(a), (g, a.steps)
                # the converse of equal_utype_canonical in grid verify
                canonical = ar.utype() == ac.utype()
                assert is_canonical(ar) == is_canonical(ac) == canonical, (g, t_h, g_h)

    def test_height_chains_match_literal_enumeration(self):
        # every strictly increasing sequence of height vectors from T to G,
        # kept when Analysis.validate accepts it, on every closed pair of
        # every grid with at most 4 cells; the shortest of them have
        # max_j (g_j - t_j) steps
        def increasing(h, g_h):
            if h == g_h:
                yield []
                return
            for nxt in product(*[range(v, top + 1) for v, top in zip(h, g_h)]):
                if nxt != h:
                    for rest in increasing(nxt, g_h):
                        yield [nxt] + rest

        for depth, columns in [(d, c) for d in range(1, 5) for c in range(1, 4 // d + 1)]:
            g = GridModel(depth, columns)
            for g_h in product(range(depth + 1), repeat=columns):
                for t_h in product(*[range(v + 1) for v in g_h]):
                    literal = set()
                    for seq in increasing(t_h, g_h):
                        try:
                            Analysis(g, t_h, g_h, tuple(seq)).validate()
                        except ValueError:
                            continue
                        literal.add(tuple(seq))
                    for k in range(sum(g_h) - sum(t_h) + 1):
                        found = [tuple(c) for c in height_chains(t_h, g_h, max_length=k)]
                        assert len(found) == len(set(found))
                        assert set(found) == {c for c in literal if len(c) <= k}
                    # the closed form of gridcheck, and the is_minimal search
                    shortest = min(len(c) for c in literal)
                    assert max(g - t for g, t in zip(g_h, t_h)) == shortest
                    for c in literal:
                        a = Analysis(g, t_h, g_h, c)
                        assert is_minimal(a) == (len(c) == shortest), (t_h, g_h, c)

    @pytest.mark.parametrize(
        "columns, base, target, steps, message",
        [
            (1, (0,), (2,), ((2,),), "each step must be internal over the previous"),
            (2, (0, 0), (1, 1), ((1, 0, 0), (1, 1)), r"heights \(1, 0, 0\) do not fit the 2x2 grid"),
            (1, (0,), (3,), ((1,), (2,), (3,)), r"heights \(3,\) do not fit the 2x1 grid"),
            (1, (-1,), (1,), ((0,), (1,)), r"heights \(-1,\) do not fit the 2x1 grid"),
            (2, (0, 0), (1, 1), ((1, 0), (0, 1), (1, 1)), "closures must strictly increase"),
            (1, (0,), (1,), ((1,), (1,)), "closures must strictly increase"),
            (1, (0,), (2,), ((1,),), "the analysis must end at the target's closure"),
            (2, (1, 0), (0, 2), ((0, 2),), "closures must strictly increase"),
        ],
        ids=[
            "non-internal",
            "wrong-length",
            "above-depth",
            "below-zero",
            "below-predecessor",
            "repeated-step",
            "not-at-target",
            "lowers-one-jumps-another",
        ],
    )
    def test_validate_rejects_non_internal_steps(self, columns, base, target, steps, message):
        # heights on a grid of depth 2; each case breaks one rule, except the
        # last, whose step breaks two: a lowered column is reported before a
        # column that rises two rows
        with pytest.raises(ValueError, match=f"^{message}$"):
            Analysis(GridModel(2, columns), base, target, steps).validate()

    def test_closure_invariance_of_analyses(self):
        # analyses depend only on the closures of base and target
        g = GridModel(3, 2)
        S, T = cells((3, 1), (1, 2)), cells((1, 1))
        ar1 = analysis_by_reductions(S, T, g)
        ar2 = analysis_by_reductions(closure(S, g), closure(T, g), g)
        assert ar1.steps == ar2.steps
        ac1 = analysis_by_coreductions(S, T, g)
        ac2 = analysis_by_coreductions(closure(S, g), closure(T, g), g)
        assert ac1.steps == ac2.steps


class TestSeqred:
    def test_nonincreasing_staircase(self):
        g, target = build_seqred_a((3, 2, 1))
        assert (g.depth, g.columns) == (3, 3)
        assert target == cells((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
        a = analysis_by_reductions(target, EMPTY, g)
        assert a.utype() == (3, 2, 1)

    def test_nondecreasing_staircase(self):
        g, target = build_seqred_b((1, 2, 3))
        assert (g.depth, g.columns) == (3, 3)
        assert target == cells((3, 1), (2, 2), (1, 3))
        a = analysis_by_coreductions(target, EMPTY, g)
        assert a.utype() == (1, 2, 3)

    def test_the_descending_staircase_tops_the_staircase_reversed(self):
        # every nondecreasing s of at most 5 entries up to 5: build_seqred_a
        # of s reversed is the literal staircase, build_seqred_b(s) is the
        # top cell of each of its columns, and each has its U-type
        cases = [s for n in range(1, 6) for s in combinations_with_replacement(range(1, 6), n)]
        for s in cases:
            r = s[::-1]
            g, staircase = build_seqred_a(r)
            assert staircase == {(i, j) for i, width in enumerate(r, 1) for j in range(1, width + 1)}
            gb, target = build_seqred_b(s)
            tops = {(max(i for i, k in staircase if k == j), j) for j in range(1, g.columns + 1)}
            assert (gb, target) == (g, tops)
            assert analysis_by_reductions(staircase, EMPTY, g).utype() == r
            assert analysis_by_coreductions(target, EMPTY, g).utype() == s
        assert len(cases) == 251

    def test_monotonicity_enforced(self):
        with pytest.raises(NotMonotone):
            build_seqred_a((1, 2))
        with pytest.raises(NotMonotone):
            build_seqred_b((2, 1))
        with pytest.raises(NotMonotone):
            build_seqred_a((0, 0))
