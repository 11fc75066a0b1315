"""Exhaustive verification of the grid pregeometry.

Every property quantifies over all grids up to a cell budget and over
closed sets as representatives (every notion involved is closure
invariant).  Columns are identical copies, so a column permutation is an
automorphism and leaves every property invariant: a pair or triple
property visits one representative per column orbit, a multiset of
per-column states (``_orbits``; isomorph rejection, McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998), weighted by its orbit
size, so ``instances=`` still counts pairs or triples.  The verification
is layered so that each layer is checked exhaustively against the one
below:

* layer 0 - the public ``closure`` is compared, once, with the bitmask
  closure table on **every** subset of every grid, and the axioms are
  laws of that table (``closure_axioms``); its unions A|B|T of closed
  sets are closed, so ranks are popcount differences and additive, one
  row per orbit of (T, A) with every B at once, where the public
  ``urank`` must agree (``urank_additivity``);
* layer 1 - ``grid``'s one-step column rules ``_red_column`` and
  ``_cored_column``, which its ``reduction`` and ``coreduction`` apply, are
  compared on every closed pair (T, G) up to column order with the
  literal brute-force definitions, stated in bitmask arithmetic
  (``reduction_maximality``, ``coreduction_uniqueness``); so are the
  public ``reduction`` and ``coreduction``;
* layer 2 - the chain properties (minimality, canonicity, the local
  criteria, ...) quantify over the same pairs but iterate the
  layer-1-verified column rules (``grid._red_chain``,
  ``grid._cored_chain``).  An analysis is a chain of height vectors, one
  per step.  They search analyses with ``grid.height_chains``, whose
  step rule says which analyses it grows.  The minimal length is the
  closed form max_j (g_j - t_j), checked against the public
  ``is_minimal`` search on every pair: a step raises a column by at most
  one row, and the analysis by reductions raises every unfinished column.
  On every pair the public analysis functions, given the pair as cell
  sets, must return exactly those chains over that pair, and the public
  predicates must agree (``is_canonical`` on every pair whose two U-types
  agree).  The local criteria read the chains only: each step must be the
  column rule applied to its neighbours, a closed pair on which layer 1
  has already tied that rule to the public ``reduction`` or
  ``coreduction``.

``_check`` is the only code that builds a ``PropertyReport``; the caller
times it.  The seven pair properties of layers 1 and 2 are per-pair
functions run by ``_check_pairs`` over ``_pairs_closed`` of the grids it
is given: layer 1 reads the closed masks of each ``_Grid``, and the chain
properties read height vectors only, so they take each bare
``GridModel`` and build no closure table.  ``_check_pairs`` owns the
orbit weights and every pair counterexample, ``grid DxC: ..., T=(...)
G=(...)`` in heights, in its representative's column order.
``properties`` is the one budget-checked list of checks that
``run_grid_suite`` and the CLI run.

Small values are tables built once and read by index.  A ``_Grid`` holds,
next to its closure table, the cell sets of the low and the high half of
every mask's bits (``to_set`` joins two) and the mask of every column at
every height (``mask_of_heights`` sums one per column); ``_orbits``
divides the column orders along each run of equal states; a local
criterion keeps the values of the column rule in force for one check.
The one cache that outlives a check, ``_PAIRS``, holds the closed pairs
of each grid shape, keyed on the ``_orbits`` in force, as height tuples
(4,249 of them at 12 cells); the ``_Grid`` tables go with their grid.
None of this changes what is checked: the ``_Grid`` tables come from the
bit layout alone, a kept rule value is the rule's own on the same two
heights, and every public function is still called on every instance it
was called on before.

A mask is a Python int, packed column-major: cell (i, j) is bit (j-1)*depth + (i-1).
Closed sets are exactly the masks whose columns are downward intervals.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, partial, reduce
from itertools import combinations_with_replacement, product
from math import factorial
from operator import and_, getitem, sub

from .errors import BudgetExceeded, Record
from .grid import (
    Analysis,
    GridModel,
    _cored_chain,
    _cored_column,
    _one_row_steps,
    _one_step,
    _red_chain,
    _red_column,
    _step,
    _utype,
    analysis_by_coreductions,
    analysis_by_reductions,
    closure,
    coreduction,
    from_heights,
    height_chains,
    internal,
    is_canonical,
    is_incompressible,
    is_minimal,
    reduction,
    urank,
)

MAX_VERIFY_CELLS = 12


class PropertyReport(Record):
    __slots__ = _compared = ("name", "instances", "passed", "counterexample")
    _defaults = {"counterexample": None}

    def verdict(self) -> tuple[bool, str]:
        """(passed, detail) of the property's CHECK line."""
        tail = f" {self.counterexample}" if self.counterexample else ""
        return self.passed, f"instances={self.instances}{tail}"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" {self.counterexample}" if self.counterexample else ""
        return f"{self.name} instances={self.instances} {status}{tail}"


def _subsets(cells):
    """The cell set of every mask over cells, bit k standing for cells[k]:
    each cell doubles the list."""
    sets = [frozenset()]
    for cell in cells:
        sets += [s | {cell} for s in sets]
    return sets


class _Grid:
    """The closure of every mask of one grid and its fixed points, as int
    lists, and tables of cell sets and column masks, read by index."""

    def __init__(self, depth: int, columns: int):
        self.depth = depth
        self.columns = columns
        self.g = GridModel(depth, columns)
        self.cells = depth * columns
        self.cells_mask = (1 << self.cells) - 1
        self.row1_mask = sum(1 << (j * depth) for j in range(columns))
        # per column, fill every set bit down to row 1
        column_closure = []
        for col in range(1 << depth):
            for _ in range(depth - 1):
                col |= col >> 1
            column_closure.append(col)
        # mask = col << (j * depth) | low, so column j is the outer loop
        table = [0]
        for j in range(columns):
            table = [col << (j * depth) | low for col in column_closure for low in table]
        self.closure_table = table
        self.closed_array = [mask for mask, image in enumerate(table) if image == mask]
        self._inside = {}
        # the cell sets of the low and the high half of a mask's bits:
        # 2 * 2^(cells/2) sets, where one per mask would take 2^cells
        cell_of_bit = [(i + 1, j + 1) for j in range(columns) for i in range(depth)]
        self.half = self.cells // 2
        self.low_mask = (1 << self.half) - 1
        self.low_sets = _subsets(cell_of_bit[: self.half])
        self.high_sets = _subsets(cell_of_bit[self.half :])
        # column j filled to height h
        self.column_masks = [
            [((1 << h) - 1) << (j * depth) for h in range(depth + 1)] for j in range(columns)
        ]

    def closed_inside(self, mask: int) -> list[int]:
        """The closed masks inside mask, in increasing order (cached)."""
        if mask not in self._inside:
            self._inside[mask] = [m for m in self.closed_array if (m & mask) == m]
        return self._inside[mask]

    def to_set(self, mask: int):
        return self.low_sets[mask & self.low_mask] | self.high_sets[mask >> self.half]

    def mask_of_heights(self, h) -> int:
        return sum(map(getitem, self.column_masks, h))


def _models(max_cells: int):
    """Every grid with at most max_cells cells, as a bare GridModel."""
    for depth in range(1, max_cells + 1):
        for columns in range(1, max_cells // depth + 1):
            yield GridModel(depth, columns)


def _grids(max_cells: int):
    """Every grid with at most max_cells cells, with its bitmask tables."""
    for g in _models(max_cells):
        yield _Grid(g.depth, g.columns)


def _orbits(states, columns):
    """(representative, orbit size) of every assignment of a state to each
    column, up to column order: each multiset once, in the order of
    ``states``, with the multinomial number of its column orders.  Equal
    states come out next to each other, so the k-th of a run divides the
    column orders by k."""
    orders = factorial(columns)
    for rep in combinations_with_replacement(states, columns):
        weight = orders
        run = 1
        for before, state in zip(rep, rep[1:]):
            run = run + 1 if state == before else 1
            weight //= run
        yield rep, weight


# (depth, columns, _orbits) -> the list _pairs_closed returns
_PAIRS = {}


def _pairs_closed(gr: GridModel | _Grid):
    """(T, G, weight): closed height-vector pairs with T inside G, one per
    column orbit.  The column states (t, g) are ordered by g first.  Built
    once per grid shape and ``_orbits`` in force, and shared by every pair
    property."""
    key = (gr.depth, gr.columns, _orbits)
    if key not in _PAIRS:
        states = [(t, g) for g in range(gr.depth + 1) for t in range(g + 1)]
        _PAIRS[key] = [(*zip(*rep), weight) for rep, weight in _orbits(states, gr.columns)]
    return _PAIRS[key]


def _check(name, gen):
    """Build a property's report.  gen yields None for an instance that
    holds, an int for a batch of that many instances that hold, or a
    counterexample string, which ends the run."""
    count = 0
    counterexample = None
    for outcome in gen:
        if outcome is None:
            count += 1
        elif isinstance(outcome, int):
            count += outcome
        else:
            count += 1
            counterexample = outcome
            break
    return PropertyReport(name, count, counterexample is None, counterexample)


def _check_pairs(name, grids, per_pair):
    """Run per_pair(g, t_h, g_h), which returns None or a reason, on the
    closed height pairs of every grid g in grids (``_models`` or
    ``_grids``); a pair that holds counts its orbit."""

    def gen():
        for g in grids:
            where = f"grid {g.depth}x{g.columns}"
            for t_h, g_h, weight in _pairs_closed(g):
                reason = per_pair(g, t_h, g_h)
                yield weight if reason is None else f"{where}: {reason}, T={t_h} G={g_h}"

    return _check(name, gen())


# --- analysis search ---------------------------------------------------------


def _column_rule_steps(column, before, last, target_h):
    """Next steps after ``last`` that raise each column by at most one and
    meet column(before_j, next_j) == last_j in every column j, so that
    ``last`` is the one-step reduction (``_red_column``) or coreduction
    (``_cored_column``) of the next step over ``before``.  Candidates are
    built column by column, so a dead branch costs O(columns): a column may
    stay iff column(b, l) == l and rise iff column(b, l + 1) == l."""
    if before is None:
        return _one_row_steps(before, last, target_h)
    options = []
    for bv, lv, tv in zip(before, last, target_h):
        stay = column(bv, lv) == lv
        if lv < tv and column(bv, lv + 1) == lv:
            options.append((lv, lv + 1) if stay else (lv + 1,))
        elif stay:
            options.append((lv,))
        else:
            return []
    return [nxt for nxt in product(*options) if nxt != last]


def _single_cell_steps(before, last, target_h):
    """Steps adding exactly one cell that are not internal over the step
    before last: the analysis stays incompressible, and a violated prefix
    can never recover."""
    for j, (lv, tv) in enumerate(zip(last, target_h)):
        if lv < tv:
            nxt = last[:j] + (lv + 1,) + last[j + 1 :]
            if before is None or not _one_step(before, nxt):
                yield nxt


# --- individual properties --------------------------------------------------


def check_closure_axioms(max_cells: int) -> PropertyReport:
    def gen():
        for gr in _grids(max_cells):
            where = f"grid {gr.depth}x{gr.columns}: closure"
            table = gr.closure_table
            masks = range(len(table))
            for mask in masks:
                S = gr.to_set(mask)
                same = closure(S, gr.g) == gr.to_set(table[mask])
                yield None if same else f"{where} mismatch on {sorted(S)}"
            # the public closure is the table, so the axioms are its laws;
            # monotone on covering pairs A <= A | {x} is monotone on all
            # 3^cells nested pairs, as inclusion is transitive
            extensive = [m for m in masks if m & ~table[m]]
            idempotent = [m for m in masks if table[table[m]] != table[m]]
            for law, bad in (("extensive", extensive), ("idempotent", idempotent)):
                if bad:
                    yield f"{where} not {law} on {sorted(gr.to_set(bad[0]))}"
            for x in range(gr.cells):
                bad = [a for a in masks if table[a] & ~table[a | 1 << x]]
                if bad:
                    pair = f"{sorted(gr.to_set(bad[0]))} <= {sorted(gr.to_set(bad[0] | 1 << x))}"
                    yield f"{where} not monotone on {pair}"
            yield 3**gr.cells

    return _check("closure_axioms", gen())


def check_urank_additivity(max_cells: int) -> PropertyReport:
    def gen():
        for gr in _grids(max_cells):
            closed, table = gr.closed_array, gr.closure_table
            # One row per column orbit of (T, A), every closed B at once: with
            # A|B|T closed, ranks are popcount differences, so additive.  Each
            # row checks the public urank; a union A|T scans the closed masks once.
            first_open = {}
            states = list(product(range(gr.depth + 1), repeat=2))
            for rep, weight in _orbits(states, gr.columns):
                t_h, a_h = zip(*rep)
                t, a = gr.mask_of_heights(t_h), gr.mask_of_heights(a_h)
                if urank(gr.to_set(a), gr.to_set(t), gr.g) != (a | t).bit_count() - t.bit_count():
                    yield f"grid {gr.depth}x{gr.columns}: urank disagrees with the mask table"
                u = a | t
                if u not in first_open:
                    first_open[u] = next((b for b in closed if table[b | u] != b | u), None)
                if (b := first_open[u]) is not None:
                    yield (
                        f"grid {gr.depth}x{gr.columns}: A|B|T is not closed at "
                        f"A={sorted(gr.to_set(a))} "
                        f"B={sorted(gr.to_set(b))} T={sorted(gr.to_set(t))}"
                    )
                yield weight * len(closed)

    return _check("urank_additivity", gen())


def check_reduction_maximality(max_cells: int) -> PropertyReport:
    def per_pair(gr, t_h, g_h):
        t_mask, g_mask = gr.mask_of_heights(t_h), gr.mask_of_heights(g_h)
        T, G = gr.to_set(t_mask), gr.to_set(g_mask)
        red = reduction(G, T, gr.g)
        red_mask = sum(1 << ((j - 1) * gr.depth + i - 1) for i, j in red)
        # brute force: internal closed subsets of G over T
        allowed = t_mask | ((t_mask << 1) & gr.cells_mask) | gr.row1_mask
        candidates = [m for m in gr.closed_inside(g_mask) if (m & allowed) == m]
        if not internal(red, T, gr.g):
            return "reduction not internal"
        if any(m & ~red_mask for m in candidates):
            return "an internal subset escapes the reduction"
        if red_mask not in candidates:
            return "the reduction is not itself an internal closed subset"
        # ties the one-step-up column rule used by the chain properties to
        # the public reduction, on every pair
        if red_mask != gr.mask_of_heights(_step(_red_column, t_h, g_h)):
            return "reduction disagrees with the height map"
        return None

    return _check_pairs("reduction_maximality", _grids(max_cells), per_pair)


def check_coreduction_uniqueness(max_cells: int) -> PropertyReport:
    def per_pair(gr, t_h, g_h):
        t_mask, g_mask = gr.mask_of_heights(t_h), gr.mask_of_heights(g_h)
        # brute force: closed X in G with G internal over X|T, that is X|X<<1 covers rest
        rest = g_mask & ~(t_mask | t_mask << 1 | gr.row1_mask)
        witnesses = [x for x in gr.closed_inside(g_mask) if (x | x << 1) & rest == rest]
        least = reduce(and_, witnesses, g_mask)  # with no witness, g_mask is none
        if least not in witnesses:
            return "minimal witnesses disagree"
        # ties the one-step-down column rule used by the chain properties
        # to the least witness, on every pair
        if (t_mask | least) != gr.mask_of_heights(_step(_cored_column, t_h, g_h)):
            return "least witness disagrees with the height map"
        if coreduction(gr.to_set(g_mask), gr.to_set(t_mask), gr.g) != gr.to_set(least):
            return "coreduction disagrees with brute force"
        return None

    return _check_pairs("coreduction_uniqueness", _grids(max_cells), per_pair)


def check_analyses_minimal(max_cells: int) -> PropertyReport:
    def per_pair(g, t_h, g_h):
        red_chain = _red_chain(t_h, g_h)
        cored_chain = _cored_chain(t_h, g_h)
        shortest = max(map(sub, g_h, t_h))
        for label, chain in (("reductions", red_chain), ("coreductions", cored_chain)):
            if any(u < 1 for u in _utype(chain, t_h)):
                return f"degenerate {label} step"
            if len(chain) != shortest:
                return f"analysis by {label} not minimal"
        T = from_heights(t_h, g)
        G = from_heights(g_h, g)
        ar = analysis_by_reductions(G, T, g)
        ac = analysis_by_coreductions(G, T, g)
        ar.validate()
        ac.validate()
        if (ar.base, ar.target) != (t_h, g_h) or (ac.base, ac.target) != (t_h, g_h):
            return "public analysis has the wrong base or target"
        if list(ar.steps) != red_chain or list(ac.steps) != cored_chain:
            return "public analysis disagrees with the verified chain"
        if not (is_minimal(ar) and is_minimal(ac)):
            return "public is_minimal disagrees"
        return None

    return _check_pairs("analyses_minimal", _models(max_cells), per_pair)


def check_equal_utype_canonical(max_cells: int) -> PropertyReport:
    """Where the analyses by reductions and by coreductions have one U-type,
    they are one analysis, and the public ``is_canonical`` holds of it."""

    def per_pair(g, t_h, g_h):
        red_chain = _red_chain(t_h, g_h)
        cored_chain = _cored_chain(t_h, g_h)
        if _utype(red_chain, t_h) != _utype(cored_chain, t_h):
            return None
        if not is_canonical(Analysis(g, t_h, g_h, tuple(red_chain))):
            return "equal U-types but the analysis by reductions is not canonical"
        if cored_chain != red_chain:
            return "analyses disagree stepwise"
        return None

    return _check_pairs("equal_utype_canonical", _models(max_cells), per_pair)


def check_incompressible_ones_minimal(max_cells: int) -> PropertyReport:
    def per_pair(g, t_h, g_h):
        if t_h == g_h:
            return None
        shortest = max(map(sub, g_h, t_h))
        rank = sum(g_h) - sum(t_h)
        for seq in height_chains(t_h, g_h, max_length=rank, steps=_single_cell_steps):
            if len(seq) != shortest:
                return (
                    f"incompressible (1,..,1) analysis of length {len(seq)} "
                    f"but minimum is {shortest}"
                )
            a = Analysis(g, t_h, g_h, tuple(seq))
            a.validate()
            if not (all(u == 1 for u in a.utype()) and is_incompressible(a) and is_minimal(a)):
                return f"public predicates disagree on {seq}"
        return None

    return _check_pairs("incompressible_ones_minimal", _models(max_cells), per_pair)


def check_local_criterion(max_cells: int, direction: str) -> PropertyReport:
    """The local criterion of the analysis by reductions (direction
    "reductions") or by coreductions ("coreductions"): each step is the
    reduction of the next step over the step before (or the coreduction
    of the next step over the step before, joined with that step).
    Forward, that analysis meets the criterion; reverse, ``height_chains``
    with the criterion as its step rule finds it and no other analysis."""
    rule, official_chain = {
        "reductions": (_red_column, _red_chain),
        "coreductions": (_cored_column, _cored_chain),
    }[direction]
    # the rule in force, its values kept for this check as they are first read
    column = cache(rule)
    steps = partial(_column_rule_steps, column)

    def per_pair(g, t_h, g_h):
        official = official_chain(t_h, g_h)
        chain = [t_h] + official
        for i in range(1, len(chain) - 1):
            if _step(column, chain[i - 1], chain[i + 1]) != chain[i]:
                return f"by-{direction} analysis fails the local criterion at step {i}"
        found = list(height_chains(t_h, g_h, max_length=sum(g_h) - sum(t_h), steps=steps))
        if found != [official]:
            return f"the locally-by-{direction} analyses {found} are not exactly [{official}]"
        return None

    return _check_pairs(f"local_criterion_{direction}", _models(max_cells), per_pair)


def check_column_chain_length(max_cells: int) -> PropertyReport:
    def gen():
        for depth in range(1, max_cells + 1):
            g = GridModel(depth, 1)
            a = analysis_by_reductions(frozenset({(depth, 1)}), frozenset(), g)
            if a.length != depth or not is_minimal(a):
                yield f"column of depth {depth}: public analysis has length {a.length}"
            yield None

    return _check("column_chain_length", gen())


# (name, checker, cell cap): every property runs to the full budget
ALL_PROPERTIES = [
    ("closure_axioms", check_closure_axioms, MAX_VERIFY_CELLS),
    ("urank_additivity", check_urank_additivity, MAX_VERIFY_CELLS),
    ("reduction_maximality", check_reduction_maximality, MAX_VERIFY_CELLS),
    ("coreduction_uniqueness", check_coreduction_uniqueness, MAX_VERIFY_CELLS),
    ("analyses_minimal", check_analyses_minimal, MAX_VERIFY_CELLS),
    ("equal_utype_canonical", check_equal_utype_canonical, MAX_VERIFY_CELLS),
    ("incompressible_ones_minimal", check_incompressible_ones_minimal, MAX_VERIFY_CELLS),
    (
        "local_criterion_reductions",
        partial(check_local_criterion, direction="reductions"),
        MAX_VERIFY_CELLS,
    ),
    (
        "local_criterion_coreductions",
        partial(check_local_criterion, direction="coreductions"),
        MAX_VERIFY_CELLS,
    ),
    ("column_chain_length", check_column_chain_length, MAX_VERIFY_CELLS),
]


def properties(max_cells: int) -> list[tuple[str, Callable[[], PropertyReport]]]:
    """(name, check) of every property on all grids with at most max_cells
    cells; larger requests are refused rather than sampled.  ALL_PROPERTIES
    is read at call time, so an entry patched in place is the one that
    runs."""
    if max_cells > MAX_VERIFY_CELLS:
        raise BudgetExceeded(
            f"max_cells={max_cells} exceeds the exhaustive-verification budget {MAX_VERIFY_CELLS}"
        )
    if max_cells < 1:
        raise ValueError("max_cells must be positive")
    return [(name, partial(fn, max_cells)) for name, fn, _ in ALL_PROPERTIES]


def run_grid_suite(max_cells: int = 9) -> list[PropertyReport]:
    return [check() for _, check in properties(max_cells)]
