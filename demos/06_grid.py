"""The finite grid pregeometry: rank, internality, analyses, canonicity.

Closure pulls cells down their columns, rank counts new closed cells, and
a set is internal over a base when it climbs at most one step per column.
Every rank-and-internality notion becomes finite and checkable by brute force.
"""

from deltatower import (
    GridModel,
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
from deltatower.grid import Analysis
from deltatower.gridcheck import run_grid_suite

g = GridModel(2, 2)
empty = frozenset()

print("## closure, rank, internality")
S = frozenset({(2, 1), (1, 2)})
print("cl({(2,1),(1,2)}) =", sorted(closure(S, g)))
print("rank over empty base:", urank(S, empty, g))
print("internal over empty base:", internal(S, empty, g))

print()
print("## a target with two different minimal analyses (no canonical one)")
ar = analysis_by_reductions(S, empty, g)
ac = analysis_by_coreductions(S, empty, g)
print("by reductions:   U-type", ar.utype(), "step heights", list(ar.steps))
print("by coreductions: U-type", ac.utype(), "step heights", list(ac.steps))
print("reduction of S over empty:", sorted(reduction(S, empty, g)))
print("coreduction of S over empty:", sorted(coreduction(S, empty, g)))
print("either canonical?", is_canonical(ar) or is_canonical(ac))

print()
print("## incompressible does not imply minimal")
# an analysis holds the height vector (top row per column) of each step
staircase = Analysis(g, (0, 0), (2, 2), ((1, 0), (2, 1), (2, 2)))
staircase.validate()
print("3-step staircase: incompressible", is_incompressible(staircase), end=", ")
print("minimal", is_minimal(staircase))

print()
print("## prescribing the U-type of an analysis")
ga, ta = build_seqred_a((3, 2, 1))
print("nonincreasing (3,2,1):", analysis_by_reductions(ta, empty, ga).utype())
gb, tb = build_seqred_b((1, 2, 3))
print("nondecreasing (1,2,3):", analysis_by_coreductions(tb, empty, gb).utype())

print()
print("## the exhaustive verifier (all grids with at most 6 cells)")
for report in run_grid_suite(max_cells=6):
    print(" ", report.line())
