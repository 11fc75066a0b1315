"""Exhaustive verifier machinery (small budget; the full budget runs once,
in the ``grid verify --max-cells 12`` CLI test)."""

import re
from collections import Counter
from functools import partial
from itertools import permutations, product

import pytest

from deltatower import BudgetExceeded, closure, urank
from deltatower import grid, gridcheck
from deltatower.gridcheck import ALL_PROPERTIES, run_grid_suite


@pytest.fixture(scope="module")
def small_reports():
    # one 6-cell suite run, shared by the three tests below
    return run_grid_suite(max_cells=6)


def test_suite_passes_at_small_budget(small_reports):
    assert [r.name for r in small_reports] == [name for name, _, _ in ALL_PROPERTIES]
    for r in small_reports:
        assert r.passed and r.counterexample is None, r.line()


def test_instance_counts_match_closed_forms(small_reports):
    # a column of depth d has (d+1)(d+2)/2 nested closed (T, G) pairs and
    # d+1 closed sets; the closure axioms visit every subset and every
    # nested pair of subsets (3^n of them)
    grids = [(d, c) for d in range(1, 7) for c in range(1, 6 // d + 1)]
    pairs = sum(((d + 1) * (d + 2) // 2) ** c for d, c in grids)
    expected = {name: pairs for name, _, _ in ALL_PROPERTIES}
    expected["closure_axioms"] = sum(2 ** (d * c) + 3 ** (d * c) for d, c in grids)
    expected["urank_additivity"] = sum((d + 1) ** (3 * c) for d, c in grids)
    expected["column_chain_length"] = 6
    assert {r.name: r.instances for r in small_reports} == expected


def test_report_lines_carry_counts(small_reports):
    for r in small_reports:
        assert r.line() == f"{r.name} instances={r.instances} PASS"


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        run_grid_suite(max_cells=20)
    with pytest.raises(ValueError):
        run_grid_suite(max_cells=0)


def test_properties_read_the_list_at_call_time():
    # the list is patched in place by callers that wrap the checkers
    name, fn, cap = ALL_PROPERTIES[0]
    calls = []

    def wrapped(max_cells):
        calls.append(max_cells)
        return fn(max_cells)

    ALL_PROPERTIES[0] = (name, wrapped, cap)
    try:
        checks = gridcheck.properties(3)
    finally:
        ALL_PROPERTIES[0] = (name, fn, cap)
    assert [n for n, _ in checks] == [n for n, _, _ in ALL_PROPERTIES]
    assert checks[0][1]().passed and calls == [3]


# (public name as gridcheck sees it, broken replacement, property that must fail)
BROKEN = [
    ("urank", lambda S, T, g: urank(S, T, g) + 1, "urank_additivity"),
    ("reduction", lambda S, T, g: closure(T, g), "reduction_maximality"),
    ("coreduction", lambda S, T, g: closure(S | T, g), "coreduction_uniqueness"),
    ("is_minimal", lambda a: False, "analyses_minimal"),
    ("is_canonical", lambda a: False, "equal_utype_canonical"),
]


@pytest.mark.parametrize("attr, broken, prop", BROKEN)
def test_broken_public_function_fails_its_property(monkeypatch, attr, broken, prop):
    monkeypatch.setattr(gridcheck, attr, broken)
    check = {name: fn for name, fn, _ in ALL_PROPERTIES}[prop]
    report = check(4)
    assert not report.passed
    assert re.match(r"grid \d+x\d+: ", report.counterexample), report.counterexample
    assert report.instances >= 1
    assert report.line().startswith(f"{prop} instances={report.instances} FAIL grid ")


def _one_cell_chain(t_h, g_h):
    """A valid analysis that adds one cell per step, column by column."""
    chain, h = [], list(t_h)
    for j, top in enumerate(g_h):
        while h[j] < top:
            h[j] += 1
            chain.append(tuple(h))
    return chain


def test_a_longer_analysis_by_reductions_fails_the_length_check(monkeypatch):
    # a valid analysis with one cell per step is too long wherever two
    # columns rise; is_minimal is not broken, so the comparison with the
    # closed form max_j (g_j - t_j) must report it
    g = grid.GridModel(2, 2)
    grid.Analysis(g, (0, 0), (2, 2), tuple(_one_cell_chain((0, 0), (2, 2)))).validate()
    monkeypatch.setattr(gridcheck, "_red_chain", _one_cell_chain)
    report = gridcheck.check_analyses_minimal(4)
    assert not report.passed
    assert report.counterexample == "grid 1x2: analysis by reductions not minimal, T=(0, 0) G=(1, 1)"


# The local criteria read chains only; these three checks alone tie the
# column rules to the public functions and the chains to the rules.
@pytest.mark.parametrize(
    "name, broken, line",
    [
        (
            "_red_column",
            lambda b, a: min(a, b + 2),
            "reduction_maximality instances=124 FAIL grid 2x1: "
            "reduction disagrees with the height map, T=(0,) G=(2,)",
        ),
        (
            "_cored_column",
            lambda b, a: max(b, a - 2),
            "coreduction_uniqueness instances=124 FAIL grid 2x1: "
            "least witness disagrees with the height map, T=(0,) G=(2,)",
        ),
        (
            "_red_chain",
            _one_cell_chain,
            "local_criterion_reductions instances=9 FAIL grid 1x2: "
            "by-reductions analysis fails the local criterion at step 1, T=(0, 0) G=(1, 1)",
        ),
    ],
)
def test_a_broken_rule_or_chain_fails_the_check_that_ties_it(monkeypatch, name, broken, line):
    monkeypatch.setattr(gridcheck, name, broken)
    prop = line.split(" ", 1)[0]
    assert {n: fn for n, fn, _ in ALL_PROPERTIES}[prop](4).line() == line


@pytest.mark.parametrize(
    "direction, name, broken",
    [
        ("reductions", "_red_column", lambda b, a: min(a, b + 2)),
        ("coreductions", "_cored_column", lambda b, a: max(b, a - 2)),
    ],
)
def test_local_criterion_reads_the_rule_in_force(monkeypatch, direction, name, broken):
    # the rule's values are kept for one check only: a run before the
    # patch, the patch and its undo are each seen by the next check
    check = partial(gridcheck.check_local_criterion, 4, direction)
    assert check().line() == f"local_criterion_{direction} instances=187 PASS"
    monkeypatch.setattr(gridcheck, name, broken)
    assert check().line() == (
        f"local_criterion_{direction} instances=124 FAIL grid 2x1: "
        f"by-{direction} analysis fails the local criterion at step 1, T=(0,) G=(2,)"
    )
    monkeypatch.undo()
    assert check().passed


def test_coreduction_is_compared_on_every_pair(monkeypatch):
    # wrong only at T = rows 1-2, G = rows 1-7 of the 7x1 grid: its 31st
    # closed pair, which a slice of every 16th pair above 6 cells skips
    real = gridcheck.coreduction

    def wrong(S, T, g):
        if (g.depth, g.columns, len(S), len(T)) == (7, 1, 7, 2):
            return closure(S, g)
        return real(S, T, g)

    monkeypatch.setattr(gridcheck, "coreduction", wrong)
    report = gridcheck.check_coreduction_uniqueness(7)
    assert not report.passed
    assert report.counterexample == "grid 7x1: coreduction disagrees with brute force, T=(2,) G=(7,)"


# Every other FAIL branch of a property, each reached by one named mutant:
# (the names gridcheck sees and their broken replacements, the report line).
# Brute force counts as a mutant target too: with no witness found, the
# least witness is no witness.
FAIL_BRANCHES = {
    "internal refuses everything": (
        {"internal": lambda S, T, g: False},
        "reduction_maximality instances=1 FAIL grid 1x1: reduction not internal, T=(0,) G=(0,)",
    ),
    "reduction of the whole grid": (
        {"reduction": lambda S, T, g: grid.reduction(
            grid.from_heights((g.depth,) * g.columns, g), T, g)},
        "reduction_maximality instances=1 FAIL grid 1x1: "
        "the reduction is not itself an internal closed subset, T=(0,) G=(0,)",
    ),
    "brute force finds no witness": (
        {"_Grid.closed_inside": lambda self, mask: []},
        "coreduction_uniqueness instances=1 FAIL grid 1x1: minimal witnesses disagree, T=(0,) G=(0,)",
    ),
    "chain repeats its base": (
        {"_red_chain": lambda t_h, g_h: [t_h, *grid._red_chain(t_h, g_h)]},
        "analyses_minimal instances=1 FAIL grid 1x1: degenerate reductions step, T=(0,) G=(0,)",
    ),
    "public analysis over the empty set": (
        {"analysis_by_reductions": lambda G, T, g: grid.analysis_by_reductions(G, frozenset(), g)},
        "analyses_minimal instances=3 FAIL grid 1x1: "
        "public analysis has the wrong base or target, T=(1,) G=(1,)",
    ),
    "public coreductions are the reductions": (
        {"analysis_by_coreductions": grid.analysis_by_reductions},
        "analyses_minimal instances=141 FAIL grid 2x2: "
        "public analysis disagrees with the verified chain, T=(0, 0) G=(1, 2)",
    ),
    "coreduction chain of lists": (
        {"_cored_chain": lambda t_h, g_h: [list(h) for h in grid._cored_chain(t_h, g_h)]},
        "equal_utype_canonical instances=2 FAIL grid 1x1: analyses disagree stepwise, T=(0,) G=(1,)",
    ),
    "search yields one cell per step": (
        {"height_chains": lambda t_h, g_h, max_length, steps: iter([_one_cell_chain(t_h, g_h)])},
        "incompressible_ones_minimal instances=9 FAIL grid 1x2: "
        "incompressible (1,..,1) analysis of length 2 but minimum is 1, T=(0, 0) G=(1, 1)",
    ),
    "is_incompressible refuses everything": (
        {"is_incompressible": lambda a: False},
        "incompressible_ones_minimal instances=2 FAIL grid 1x1: "
        "public predicates disagree on [(1,)], T=(0,) G=(1,)",
    ),
    "is_minimal refuses a column": (
        {"is_minimal": lambda a: False},
        "column_chain_length instances=1 FAIL column of depth 1: public analysis has length 1",
    ),
}


@pytest.mark.parametrize("mutant", FAIL_BRANCHES)
def test_each_fail_branch_reports_its_mutant(monkeypatch, mutant):
    patches, line = FAIL_BRANCHES[mutant]
    for name, broken in patches.items():
        owner, _, attr = name.rpartition(".")
        monkeypatch.setattr(getattr(gridcheck, owner) if owner else gridcheck, attr, broken)
    prop = line.split(" ", 1)[0]
    assert {n: fn for n, fn, _ in ALL_PROPERTIES}[prop](4).line() == line


def _patch_1x3_closure(monkeypatch, images):
    """Change the closure of the 1x3 grid (cells a, b, c, bits 0-2) on the
    masks in images, in the _Grid table (and its closed masks, the fixed
    points) and in the public closure alike."""
    real_init, real_closure = gridcheck._Grid.__init__, gridcheck.closure
    g13 = grid.GridModel(1, 3)
    cells = [(1, 1), (1, 2), (1, 3)]

    def to_set(mask):
        return frozenset(c for k, c in enumerate(cells) if mask >> k & 1)

    by_set = {to_set(m): to_set(image) for m, image in images.items()}

    def init(self, depth, columns):
        real_init(self, depth, columns)
        if (depth, columns) == (1, 3):
            for m, image in images.items():
                self.closure_table[m] = image
            self.closed_array = [m for m, image in enumerate(self.closure_table) if image == m]

    def patched(S, g):
        if g == g13 and S in by_set:
            return by_set[S]
        return real_closure(S, g)

    monkeypatch.setattr(gridcheck._Grid, "__init__", init)
    monkeypatch.setattr(gridcheck, "closure", patched)


def test_closure_axioms_fail_a_non_monotone_table(monkeypatch):
    # cl({a}) = {a, b} while {a, c} stays closed: extensive and idempotent,
    # the public closure agrees, but monotonicity fails on the one nested
    # pair {a} <= {a, c}
    _patch_1x3_closure(monkeypatch, {0b001: 0b011})
    report = gridcheck.check_closure_axioms(3)
    assert not report.passed
    assert report.counterexample == (
        "grid 1x3: closure not monotone on [(1, 1)] <= [(1, 1), (1, 3)]"
    )


@pytest.mark.parametrize(
    "images, law",
    [
        # cl({a}) = {}: not extensive
        ({0b001: 0b000}, "extensive"),
        # cl({a}) = {a, b}, cl({a, b}) = {a, b, c}: not idempotent
        ({0b001: 0b011, 0b011: 0b111}, "idempotent"),
    ],
)
def test_closure_axioms_fail_a_table_that_breaks_a_law(monkeypatch, images, law):
    _patch_1x3_closure(monkeypatch, images)
    report = gridcheck.check_closure_axioms(3)
    assert not report.passed
    assert report.counterexample == f"grid 1x3: closure not {law} on [(1, 1)]"


def test_closure_axioms_call_the_public_closure_once_per_subset(monkeypatch):
    real = gridcheck.closure
    calls = Counter()

    def counted(S, g):
        calls[S, g.depth, g.columns] += 1
        return real(S, g)

    monkeypatch.setattr(gridcheck, "closure", counted)
    assert gridcheck.check_closure_axioms(4).passed
    subsets = sum(2 ** (d * c) for d in range(1, 5) for c in range(1, 4 // d + 1))
    assert len(calls) == subsets == sum(calls.values())


def test_urank_additivity_fails_a_closure_whose_unions_are_open(monkeypatch):
    """On the 1x3 grid any two cells close to all three: extensive,
    idempotent and monotone, but the union {a, c} of the closed {a} and
    {c} is not closed, so popcounts do not stand for ranks."""
    _patch_1x3_closure(monkeypatch, {0b011: 0b111, 0b101: 0b111, 0b110: 0b111})
    assert gridcheck.check_closure_axioms(3).passed  # the axioms hold
    report = gridcheck.check_urank_additivity(3)
    assert not report.passed
    assert report.counterexample == "grid 1x3: A|B|T is not closed at A=[(1, 3)] B=[(1, 1)] T=[]"


CHAIN_PROPERTIES = [
    "analyses_minimal",
    "equal_utype_canonical",
    "incompressible_ones_minimal",
    "local_criterion_reductions",
    "local_criterion_coreductions",
]


def test_chain_properties_build_no_bitmask_tables(monkeypatch):
    """The chain properties read height vectors only: none of them builds
    the 2^cells closure table of a _Grid."""

    def refuse(self, depth, columns):
        raise AssertionError(f"bitmask tables built for {depth}x{columns}")

    by_name = {name: fn for name, fn, _ in ALL_PROPERTIES}
    expected = [by_name[name](6) for name in CHAIN_PROPERTIES]
    monkeypatch.setattr(gridcheck._Grid, "__init__", refuse)
    assert [by_name[name](6) for name in CHAIN_PROPERTIES] == expected
    assert all(r.passed for r in expected)


@pytest.mark.parametrize("column", [grid._red_column, grid._cored_column])
def test_column_rule_steps_match_literal_filter(column):
    """The per-column stay/rise rule yields the same steps, in the same
    order, as filtering every candidate height through the column rule."""

    def literal(before, last, target_h):
        options = []
        for bv, lv, tv in zip(before, last, target_h):
            opts = [v for v in ((lv, lv + 1) if lv < tv else (lv,)) if column(bv, v) == lv]
            if not opts:
                return []
            options.append(opts)
        return [nxt for nxt in product(*options) if nxt != last]

    vectors = list(product(range(4), repeat=2))
    for before, last, target_h in product(vectors, repeat=3):
        if all(map(int.__le__, last, target_h)):
            got = list(gridcheck._column_rule_steps(column, before, last, target_h))
            assert got == literal(before, last, target_h), (before, last, target_h)


def _dropping_steps(drop_stay):
    """gridcheck._column_rule_steps with a defect: a column that may both
    stay and rise only rises (drop_stay) or only stays."""
    original = gridcheck._column_rule_steps

    def steps(column, before, last, target_h):
        for nxt in original(column, before, last, target_h):
            if before is None or not any(
                l < t and column(b, l) == l == column(b, l + 1) and (n == l) == drop_stay
                for b, l, n, t in zip(before, last, nxt, target_h)
            ):
                yield nxt

    return steps


@pytest.mark.parametrize(
    "drop_stay, prop",
    [
        (True, "local_criterion_coreductions"),
        (False, "local_criterion_reductions"),
        (False, "local_criterion_coreductions"),
    ],
)
def test_local_criterion_fails_when_the_official_chain_is_not_found(monkeypatch, drop_stay, prop):
    """A step rule that drops admissible steps loses the official chain on
    some pair; the property must then FAIL, not merely find nothing else.
    Dropping the stay only ever bites the coreduction direction (6 of the
    1,524 pairs at <= 6 cells), dropping the rise bites both."""
    monkeypatch.setattr(gridcheck, "_column_rule_steps", _dropping_steps(drop_stay))
    report = {name: fn for name, fn, _ in ALL_PROPERTIES}[prop](6)
    assert not report.passed
    assert "are not exactly" in report.counterexample, report.counterexample


# --- column orbits against every column order --------------------------------

ORBIT_PROPERTIES = [
    (name, fn)
    for name, fn, _ in ALL_PROPERTIES
    if name not in ("closure_axioms", "column_chain_length")
]


def _every_column_order(states, columns):
    """The trivial group: every assignment of states to columns, weight 1."""
    return ((rep, 1) for rep in product(states, repeat=columns))


@pytest.mark.parametrize("n_states, columns", [(1, 5), (3, 1), (4, 3), (6, 4), (10, 2)])
def test_orbits_partition_the_column_assignments(n_states, columns):
    orbits = list(gridcheck._orbits(range(n_states), columns))
    assert sum(weight for _, weight in orbits) == n_states**columns
    assert len({tuple(sorted(rep)) for rep, _ in orbits}) == len(orbits)
    for rep, weight in orbits:
        assert weight == len(set(permutations(rep)))


def test_orbit_reports_equal_the_literal_pair_set(monkeypatch):
    """Reference run over every column order.  Seven cells cover grids of
    up to seven columns in about 2 s; the literal run at 9 cells takes
    about 30 s, the orbit run under 1 s."""
    orbit = [fn(7) for _, fn in ORBIT_PROPERTIES]
    monkeypatch.setattr(gridcheck, "_orbits", _every_column_order)
    literal = [fn(7) for _, fn in ORBIT_PROPERTIES]
    assert [r.name for r in literal] == [name for name, _ in ORBIT_PROPERTIES]
    assert orbit == literal
    assert all(r.passed for r in literal)


def test_literal_reference_sees_a_column_asymmetric_bug(monkeypatch):
    """A reduction that is wrong only when column 1 of cl(S|T) is higher
    than column 2 slips past the orbit run, whose representatives have G
    nondecreasing across columns; every column order catches it."""
    real = gridcheck.reduction

    def lopsided(S, T, g):
        h = grid.heights(S | T, g)
        return closure(T, g) if g.columns > 1 and h[0] > h[1] else real(S, T, g)

    monkeypatch.setattr(gridcheck, "reduction", lopsided)
    assert gridcheck.check_reduction_maximality(4).passed
    monkeypatch.setattr(gridcheck, "_orbits", _every_column_order)
    report = gridcheck.check_reduction_maximality(4)
    assert not report.passed
    assert report.counterexample.startswith("grid 1x2: an internal subset escapes the reduction")


def test_cell_sets_and_height_masks_are_their_formulas():
    """The tables of a _Grid, read by index, equal the bit decoding of every
    mask and the shifted column fill of every height vector."""
    for gr in gridcheck._grids(gridcheck.MAX_VERIFY_CELLS):
        d, c = gr.depth, gr.columns
        for mask in range(1 << (d * c)):
            literal = {(i + 1, j + 1) for j in range(c) for i in range(d) if mask >> (j * d + i) & 1}
            assert gr.to_set(mask) == frozenset(literal), (d, c, mask)
        for h in product(range(d + 1), repeat=c):
            literal = sum(((1 << top) - 1) << (j * d) for j, top in enumerate(h))
            assert gr.mask_of_heights(h) == literal, (d, c, h)


PAIR_PROPERTIES = [(name, fn) for name, fn in ORBIT_PROPERTIES if name != "urank_additivity"]


def test_closed_pairs_are_built_once_per_grid_shape(monkeypatch, small_reports):
    """The seven pair properties share one list of closed pairs per grid
    shape, kept for the _orbits in force: a patched _orbits is entered
    once per shape, and so is the next one patched over it."""
    assert len(PAIR_PROPERTIES) == 7
    real = gridcheck._orbits
    shapes = sorted(((d + 1) * (d + 2) // 2, c) for d in range(1, 7) for c in range(1, 6 // d + 1))
    expected = [r for r in small_reports if r.name in dict(PAIR_PROPERTIES)]
    for _ in range(2):
        entered = []

        def counted(states, columns, entered=entered):
            entered.append((len(states), columns))
            return real(states, columns)

        monkeypatch.setattr(gridcheck, "_orbits", counted)
        assert [fn(6) for _, fn in PAIR_PROPERTIES] == expected
        assert sorted(entered) == shapes


def test_closed_masks_are_the_fixed_points_of_the_closure():
    # the image of an idempotent closure is its set of fixed points
    grids = list(gridcheck._grids(gridcheck.MAX_VERIFY_CELLS))
    assert len(grids) == 35
    for gr in grids:
        assert gr.closed_array == sorted(set(gr.closure_table)), (gr.depth, gr.columns)
