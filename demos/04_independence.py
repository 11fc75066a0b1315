"""The term-minimization independence prover and its numerical twin.

A candidate relation G = sum s_r y^r among eigen-elements is reduced one
pivot at a time: each step multiplies by the pivot's functional and
subtracts the derivative, which kills the pivot term while keeping any
vanishing identity vanishing.  Distinct functionals force any support
down to a single term, whose coefficient must then be zero.
"""

import json

from deltatower import Verdict, build_spec, certify_independence, series_rank_check
from deltatower.series import SeriesContext

spec = build_spec((3,))
gens = spec.generators(1)

print("## certifying independence of (b11, b12) up to degree 2")
trace = certify_independence(gens[:2], 2, spec)
print("verdict:", trace.verdict.value)
for k, step in enumerate(trace.steps, start=1):
    phis = {r: str(phi) for r, phi in sorted(step.functionals.items())}
    print(f"step {k}: pivot {step.pivot}, support left {list(step.remaining_support)}")
    if k == 1:
        print("         functionals:", phis)
print("replay reproduces every intermediate:", trace.replay(spec))

print()
print("## the degenerate branch flags dependent eigenvalues")
dup = certify_independence([gens[0], gens[0]], 1, spec)
print("verdict:", dup.verdict.value, "colliding exponents:", dup.colliding_pair)

print()
print("## traces serialize deterministically")
doc = json.loads(trace.to_json())
print("json keys:", sorted(doc))

print()
print("## the series oracle agrees where its assignment is nondegenerate")
ctx = SeriesContext.default(spec, order=16)  # c -> (2, 3, 5)
report = series_rank_check(gens[:2], 2, ctx, spec)
print(
    f"m=2 d=2: rank {report.rank}/{report.rows}, "
    f"smallest singular value {report.smallest_singular_value:.2e}"
)

# With the assignment (2,3,5), degree 2 already hits 2+3=5: the monomials
# b11*b12 and b13 become the same exponential and the matrix loses rank,
# even though the symbols stay independent.  The numeric oracle is only
# faithful when the assigned values are Q-linearly independent.
report3 = series_rank_check(gens, 2, ctx, spec)
print(
    f"m=3 d=2: rank {report3.rank}/{report3.rows} "
    f"(2+3=5 collides; symbolic verdict stays {Verdict.NO_NONTRIVIAL_RELATION.value})"
)
