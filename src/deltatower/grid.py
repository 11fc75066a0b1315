"""Finite pregeometry on a grid of cells.

Cells are pairs (row, column), rows counted 1..depth from the base up.
Closure pulls every cell downward in its own column, so closed sets are
exactly the "height vectors" assigning each column the top occupied row.
Rank of a set over a base is the number of new cells its closure adds.
A set is internal over a base when each new cell sits in row 1 or
directly above the base's closure: one step per column.

On top of that sit reductions (largest internal part), coreductions
(smallest base making the set internal), analyses by iterating either,
and the minimality / canonicity notions decided by exhaustive search.
Columns are independent, so a reduction or coreduction is one rule per
column (``_red_column``, ``_cored_column``) and an analysis iterates it on
height vectors (``_red_chain``, ``_cored_chain``); ``gridcheck`` ties
these rules to the literal definitions on every closed pair.

Cell sets are the interface of the set-valued rules (``closure``,
``urank``, ``internal``, ``reduction``, ``coreduction``) and the input of
the analysis constructors, which take their heights once.  An
``Analysis`` and everything that decides on it hold only height vectors.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from typing import Iterator, Sequence

from .errors import NotMonotone, Record

Cell = tuple[int, int]
CellSet = frozenset[Cell]


class GridModel(Record):
    """depth rows by columns independent copies."""

    __slots__ = _compared = ("depth", "columns")

    def __init__(self, depth: int, columns: int):
        if depth < 1 or columns < 1:
            raise ValueError("grid dimensions must be positive")
        super().__init__(depth, columns)

    @property
    def cells(self) -> int:
        return self.depth * self.columns

    def check(self, S: CellSet) -> None:
        for i, j in S:
            if not (1 <= i <= self.depth and 1 <= j <= self.columns):
                raise ValueError(f"cell ({i}, {j}) outside the {self.depth}x{self.columns} grid")


def heights(S: CellSet, g: GridModel) -> tuple[int, ...]:
    """Top occupied row per column (0 when the column is empty)."""
    h = [0] * g.columns
    for i, j in S:
        if i > h[j - 1]:
            h[j - 1] = i
    return tuple(h)


def from_heights(h: Sequence[int], g: GridModel) -> CellSet:
    return frozenset((i, j + 1) for j, top in enumerate(h) for i in range(1, top + 1))


def closure(S: CellSet, g: GridModel) -> CellSet:
    """Downward column closure; extensive, monotone, idempotent."""
    g.check(S)
    return from_heights(heights(S, g), g)


def urank(S: CellSet, T: CellSet, g: GridModel) -> int:
    """Number of cells the closure of S adds over the closure of T."""
    ht, hs = _pair_heights(S, T, g)
    return sum(hs) - sum(ht)


def _pair_heights(S: CellSet, T: CellSet, g: GridModel) -> tuple[tuple[int, ...], ...]:
    """Heights of cl(T) and of cl(S|T), once both sets are checked to lie in g."""
    g.check(S)
    g.check(T)
    return heights(T, g), heights(frozenset(S) | frozenset(T), g)


def internal(S: CellSet, T: CellSet, g: GridModel) -> bool:
    """One-step criterion: every new closed cell is in row 1 or directly
    above the closure of T."""
    return _one_step(*_pair_heights(S, T, g))


def _one_step(before, after):
    """Whether the height vector after rises at most one row above before
    in every column."""
    return all(a <= b + 1 for b, a in zip(before, after))


# --- the one-step rules, one row per column ----------------------------------


def _red_column(before, after):
    """Height of reduction(after over before) in one column: one step up."""
    return min(after, before + 1)


def _cored_column(before, after):
    """Height of cl(before | coreduction(after over before)) in one column:
    one step down."""
    return max(before, after - 1)


def _step(column, before, after):
    return tuple(map(column, before, after))


def _red_chain(t_h, g_h):
    """Step heights of the analysis by reductions of g_h over t_h."""
    chain = [t_h]
    while chain[-1] != g_h:
        chain.append(_step(_red_column, chain[-1], g_h))
    return chain[1:]


def _cored_chain(t_h, g_h):
    """Step heights of the analysis by coreductions of g_h over t_h: walk
    back from g_h, one coreduction over t_h at a time."""
    chain = [g_h]
    while chain[-1] != t_h:
        prev = _step(_cored_column, t_h, chain[-1])
        if any(map(int.__gt__, prev, chain[-1])):
            raise RuntimeError("coreduction must strictly shrink the closure")
        chain.append(prev)
    return chain[-2::-1]


def _utype(chain, t_h):
    """Cells each step of a height chain adds over the one before."""
    sizes = [sum(t_h)] + [sum(h) for h in chain]
    return tuple(map(sub, sizes[1:], sizes))


def reduction(S: CellSet, T: CellSet, g: GridModel) -> CellSet:
    """Largest internal part of cl(S|T) over T, closed: one row above cl(T)
    in every column."""
    ht, full_h = _pair_heights(S, T, g)
    return from_heights(_step(_red_column, ht, full_h), g)


def coreduction(S: CellSet, T: CellSet, g: GridModel) -> CellSet:
    """Smallest closed T' inside cl(S|T) with S internal over T|T'.

    Columns are independent, so the least witness is taken per column:
    nothing where cl(S|T) is already one step above cl(T), else all but
    the top cell of cl(S|T).
    """
    ht, full_h = _pair_heights(S, T, g)
    return from_heights([0 if full <= t + 1 else full - 1 for full, t in zip(full_h, ht)], g)


class Analysis(Record):
    """Stepwise decomposition of a target over a base, on height vectors.

    base, target and each step are the heights of cl(base),
    cl(base | target) and cl(step | base).  Each step is internal over
    its predecessor, closures strictly increase, and the last step is
    the target.
    """

    __slots__ = _compared = ("grid", "base", "target", "steps")

    def __init__(self, grid: GridModel, base: tuple, target: tuple, steps: tuple):
        super().__init__(grid, base, target, steps)

    def validate(self) -> None:
        g = self.grid
        for h in (self.base, self.target, *self.steps):
            if len(h) != g.columns or not all(v in range(g.depth + 1) for v in h):
                raise ValueError(f"heights {h} do not fit the {g.depth}x{g.columns} grid")
        prev = tuple(self.base)
        for step in map(tuple, self.steps):
            if step == prev or any(s < p for p, s in zip(prev, step)):
                raise ValueError("closures must strictly increase")
            if not _one_step(prev, step):
                raise ValueError("each step must be internal over the previous")
            prev = step
        if prev != tuple(self.target):
            raise ValueError("the analysis must end at the target's closure")

    @property
    def length(self) -> int:
        return len(self.steps)

    def utype(self) -> tuple[int, ...]:
        return _utype(self.steps, self.base)


def _analysis(chain, S: CellSet, T: CellSet, g: GridModel) -> Analysis:
    t_h, full_h = _pair_heights(S, T, g)
    return Analysis(g, t_h, full_h, tuple(chain(t_h, full_h)))


def analysis_by_reductions(S: CellSet, T: CellSet, g: GridModel) -> Analysis:
    """Iterate A_k = reduction(S, T | A_{k-1}) until the closure stabilizes."""
    return _analysis(_red_chain, S, T, g)


def analysis_by_coreductions(S: CellSet, T: CellSet, g: GridModel) -> Analysis:
    """Walk backward: the predecessor of each step is its coreduction over T."""
    return _analysis(_cored_chain, S, T, g)


def is_incompressible(a: Analysis) -> bool:
    """No two consecutive steps merge: step i+1 is never internal over the
    (i-1)-st closure."""
    chain = (a.base, *a.steps)
    return not any(_one_step(chain[i - 1], chain[i + 1]) for i in range(1, a.length))


def _one_row_steps(before, last, target_h):
    """Every step after last that raises each column by at most one row,
    and some column by one."""
    options = [(v,) if v >= t else (v, v + 1) for v, t in zip(last, target_h)]
    return [nxt for nxt in product(*options) if nxt != last]


def height_chains(
    base_h: Sequence[int],
    target_h: Sequence[int],
    *,
    max_length: int,
    steps=_one_row_steps,
) -> Iterator[list[tuple[int, ...]]]:
    """All analyses of target_h over base_h (target_h >= base_h columnwise)
    as lists of step height vectors, with at most max_length steps (at the
    minimal length, the minimal analyses).  steps(before, last, target_h)
    yields the steps admitted after last, where before is the step before
    last (None while last is the base); each must raise some column and
    pass no column of target_h.  DFS; the remaining-distance prune runs
    only when max_length is below the total rank, as each step adds a cell."""
    base_h, target_h = tuple(base_h), tuple(target_h)
    prune = max_length < sum(target_h) - sum(base_h)

    def rec(before, h, prefix: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        if h == target_h:
            # Steps past the target cannot strictly increase, so stop here.
            yield prefix
            return
        if prune and len(prefix) + max(map(sub, target_h, h)) > max_length:
            return
        for nxt in steps(before, h, target_h):
            yield from rec(h, nxt, prefix + [nxt])

    yield from rec(None, base_h, [])


def is_minimal(a: Analysis) -> bool:
    """No strictly shorter valid analysis of the same pair exists."""
    if a.length == 0:
        return True
    return next(height_chains(a.base, a.target, max_length=a.length - 1), None) is None


def is_canonical(a: Analysis) -> bool:
    """Minimal and stepwise interalgebraic with every other minimal analysis."""
    chains = height_chains(a.base, a.target, max_length=a.length)
    return is_minimal(a) and all(tuple(other) == a.steps for other in chains)


# --- prescribed-U-type constructions ---------------------------------------


def build_seqred_a(s: Sequence[int]) -> tuple[GridModel, CellSet]:
    """Staircase target whose analysis by reductions has U-type s
    (s nonincreasing)."""
    s = list(s)
    if not s or any(v < 1 for v in s):
        raise NotMonotone("s must be a nonempty sequence of positive integers")
    if any(a < b for a, b in zip(s, s[1:])):
        raise NotMonotone("analysis by reductions needs a nonincreasing sequence")
    n = len(s)
    g = GridModel(depth=n, columns=s[0])
    target = frozenset((i, j) for i in range(1, n + 1) for j in range(1, s[i - 1] + 1))
    return g, target


def build_seqred_b(s: Sequence[int]) -> tuple[GridModel, CellSet]:
    """Descending-staircase target whose analysis by coreductions has U-type s
    (s nondecreasing)."""
    s = list(s)
    if not s or any(v < 1 for v in s):
        raise NotMonotone("s must be a nonempty sequence of positive integers")
    if any(a > b for a, b in zip(s, s[1:])):
        raise NotMonotone("analysis by coreductions needs a nondecreasing sequence")
    n = len(s)
    g = GridModel(depth=n, columns=s[-1])
    first_fit = {}
    for j in range(1, s[-1] + 1):
        first_fit[j] = next(k for k in range(1, n + 1) if j <= s[k - 1])
    target = frozenset((n + 1 - first_fit[j], j) for j in range(1, s[-1] + 1))
    return g, target
