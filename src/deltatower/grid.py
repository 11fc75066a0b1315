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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from operator import sub
from typing import Iterator, Sequence

from .errors import NotMonotone

Cell = tuple[int, int]
CellSet = frozenset[Cell]

EMPTY: CellSet = frozenset()


@dataclass(frozen=True)
class GridModel:
    """depth rows by columns independent copies."""

    depth: int
    columns: int

    def __post_init__(self):
        if self.depth < 1 or self.columns < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def cells(self) -> int:
        return self.depth * self.columns

    def all_cells(self) -> list[Cell]:
        return [(i, j) for i in range(1, self.depth + 1) for j in range(1, self.columns + 1)]

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
    g.check(S)
    g.check(T)
    return len(closure(S | T, g)) - len(closure(T, g))


def internal(S: CellSet, T: CellSet, g: GridModel) -> bool:
    """One-step criterion: every new closed cell is in row 1 or directly
    above the closure of T."""
    g.check(S)
    g.check(T)
    ht = heights(T, g)
    hs = heights(frozenset(S) | frozenset(T), g)
    return all(hs[j] <= ht[j] + 1 for j in range(g.columns))


def reduction(S: CellSet, T: CellSet, g: GridModel) -> CellSet:
    """Largest internal part: all cells of cl(S|T) internal over T, closed."""
    g.check(S)
    g.check(T)
    full = closure(frozenset(S) | frozenset(T), g)
    ht = heights(closure(T, g), g)
    # cell (i, j) is internal over T exactly when i <= height_T(j) + 1
    part = frozenset(x for x in full if x[0] <= ht[x[1] - 1] + 1)
    return closure(part, g)


def coreduction(S: CellSet, T: CellSet, g: GridModel) -> CellSet:
    """Smallest closed T' inside cl(S|T) with S internal over T|T'.

    Brute force over all closed subsets.  The witness family must have a
    least element (equivalently: a unique minimal witness); RuntimeError
    reports a family without one.
    """
    g.check(S)
    g.check(T)
    ht = heights(closure(T, g), g)
    full_h = heights(frozenset(S) | frozenset(T), g)
    witnesses = [
        h
        for h in product(*(range(v + 1) for v in full_h))
        # X = closed set of heights h; S internal over T|X
        if all(fv <= max(tv, xv) + 1 for fv, tv, xv in zip(full_h, ht, h))
    ]
    if not witnesses:
        raise RuntimeError("no coreduction witness, though the full closure is one")
    least = tuple(map(min, zip(*witnesses)))
    if least not in witnesses:
        raise RuntimeError("minimal coreduction witnesses disagree")
    return from_heights(least, g)


@dataclass(frozen=True)
class Analysis:
    """Stepwise decomposition of a target over a base.

    Steps are closed sets containing cl(base); each is internal over its
    predecessor, closures strictly increase, and the last step's closure
    is cl(base | target).
    """

    grid: GridModel
    base: CellSet
    target: CellSet
    steps: tuple[CellSet, ...]

    def validate(self) -> None:
        g = self.grid
        prev = closure(self.base, g)
        for step in self.steps:
            s = closure(frozenset(step) | self.base, g)
            if not prev < s:
                raise ValueError("closures must strictly increase")
            if not internal(s, prev, g):
                raise ValueError("each step must be internal over the previous")
            prev = s
        if prev != closure(frozenset(self.target) | self.base, g):
            raise ValueError("the analysis must end at the target's closure")

    @property
    def length(self) -> int:
        return len(self.steps)

    def utype(self) -> tuple[int, ...]:
        g = self.grid
        prev = closure(self.base, g)
        out = []
        for step in self.steps:
            s = closure(frozenset(step) | self.base, g)
            out.append(len(s) - len(prev))
            prev = s
        return tuple(out)

    def step_heights(self) -> list[tuple[int, ...]]:
        g = self.grid
        return [heights(frozenset(step) | self.base, g) for step in self.steps]


def analysis_by_reductions(S: CellSet, T: CellSet, g: GridModel) -> Analysis:
    """Iterate A_k = reduction(S, T | A_{k-1}) until the closure stabilizes."""
    target = closure(frozenset(S) | frozenset(T), g)
    steps: list[CellSet] = []
    current = closure(T, g)
    while current != target:
        nxt = reduction(S, frozenset(T) | current, g)
        steps.append(nxt)
        current = nxt
    return Analysis(g, closure(T, g), target, tuple(steps))


def analysis_by_coreductions(S: CellSet, T: CellSet, g: GridModel) -> Analysis:
    """Walk backward: the predecessor of each step is its coreduction over T."""
    base = closure(T, g)
    target = closure(frozenset(S) | frozenset(T), g)
    chain: list[CellSet] = []
    current = target
    while current != base:
        chain.append(current)
        prev = closure(coreduction(current, T, g) | frozenset(T), g)
        if not prev < current:
            raise RuntimeError("coreduction must strictly shrink the closure")
        current = prev
    chain.reverse()
    return Analysis(g, base, target, tuple(chain))


def is_incompressible(a: Analysis) -> bool:
    """No two consecutive steps merge: step i+1 is never internal over the
    (i-1)-st closure."""
    g = a.grid
    for idx in range(1, len(a.steps)):
        before = a.steps[idx - 2] if idx >= 2 else a.base
        if internal(frozenset(a.steps[idx]) | a.base, frozenset(before) | a.base, g):
            return False
    return True


def height_chains(
    base_h: Sequence[int],
    target_h: Sequence[int],
    *,
    max_length: int,
    exact_length: int | None = None,
) -> Iterator[list[tuple[int, ...]]]:
    """All analyses of target_h over base_h (target_h >= base_h columnwise)
    as lists of step height vectors, with at most (or exactly) the given
    number of steps.  A step raises every column by at most one and at
    least one column in all.  DFS with the remaining-distance prune."""
    base_h, target_h = tuple(base_h), tuple(target_h)

    def rec(h: tuple[int, ...], prefix: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        if h == target_h:
            # Steps past the target cannot strictly increase, so stop here.
            if exact_length is None or len(prefix) == exact_length:
                yield prefix
            return
        if len(prefix) + max(map(sub, target_h, h)) > max_length:
            return
        options = [(v,) if v >= t else (v, v + 1) for v, t in zip(h, target_h)]
        for nxt in product(*options):
            if nxt != h:
                yield from rec(nxt, prefix + [nxt])

    yield from rec(base_h, [])


def enumerate_analyses(
    S: CellSet,
    T: CellSet,
    g: GridModel,
    *,
    max_length: int,
    exact_length: int | None = None,
) -> Iterator[Analysis]:
    """All valid analyses of (S over T) with at most (or exactly) the given
    number of steps, in the order of ``height_chains``."""
    base_h = heights(closure(T, g), g)
    target_h = heights(closure(frozenset(S) | frozenset(T), g), g)
    for seq in height_chains(base_h, target_h, max_length=max_length, exact_length=exact_length):
        yield Analysis(
            g,
            from_heights(base_h, g),
            from_heights(target_h, g),
            tuple(from_heights(h, g) for h in seq),
        )


def is_minimal(a: Analysis, g: GridModel) -> bool:
    """No strictly shorter valid analysis of the same pair exists."""
    if a.length == 0:
        return True
    shorter = enumerate_analyses(a.target, a.base, g, max_length=a.length - 1)
    return next(iter(shorter), None) is None


def is_canonical(a: Analysis, g: GridModel) -> bool:
    """Minimal and stepwise interalgebraic with every other minimal analysis."""
    if not is_minimal(a, g):
        return False
    own = a.step_heights()
    for other in enumerate_analyses(
        a.target, a.base, g, max_length=a.length, exact_length=a.length
    ):
        if other.step_heights() != own:
            return False
    return True


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


# --- scenario files ---------------------------------------------------------


def dump_scenario(g: GridModel, base: CellSet, target: CellSet) -> str:
    doc = {
        "depth": g.depth,
        "columns": g.columns,
        "base": sorted([i, j] for i, j in base),
        "target": sorted([i, j] for i, j in target),
    }
    return json.dumps(doc, sort_keys=True)


def load_scenario(text: str) -> tuple[GridModel, CellSet, CellSet]:
    doc = json.loads(text)
    g = GridModel(int(doc["depth"]), int(doc["columns"]))
    base = frozenset((int(i), int(j)) for i, j in doc.get("base", []))
    target = frozenset((int(i), int(j)) for i, j in doc.get("target", []))
    g.check(base)
    g.check(target)
    return g, base, target
