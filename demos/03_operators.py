"""Factored linear operators, their expansion, and eigen-decomposition.

Each level i has a defining operator (D_i - c[i][1])...(D_i - c[i][n_i]).
Constant eigenvalues commute, so the expanded coefficients are elementary
symmetric functions, and e_i = sum of the level-i generators solves the
equation exactly.
"""

from itertools import permutations

from deltatower import (
    apply_operator,
    build_E,
    build_spec,
    decompose,
    expand,
    is_generic,
    parse_element,
    wronskian,
)
from deltatower.operators import FactoredOperator

spec = build_spec((2, 1))

print("## the defining operators")
E1, E2 = build_E(spec, 1), build_E(spec, 2)
print("E1 =", E1)
print("E2 =", E2)

print()
print("## e_i solves its equation, and so does any constant combination")
print("E1(e_1) =", apply_operator(E1, spec.e(1), spec))
u1, u2 = parse_element("u[1][1]"), parse_element("u[1][2]")
combo = u1 * spec.generator(1, 1) + u2 * spec.generator(1, 2)
print("E1(u1*b11 + u2*b12) =", apply_operator(E1, combo, spec))

print()
print("## expansion is symmetric in the factors")
expanded = expand(E1)
print("coefficients a_0..a_2:", [str(a) for a in expanded.coefficients])
for perm in permutations(E1.eigenvalues):
    assert expand(FactoredOperator(1, perm)).coefficients == expanded.coefficients
print("all factor orders give the same expansion: True")

print()
print("## eigen-decomposition and genericity")
deco = decompose(spec.e(1), 1, spec)
print("components of e_1:", [str(f) for f in deco.components])
print("generic (all components nonzero):", is_generic(deco))

partial = decompose(u1 * spec.generator(1, 1), 1, spec)
print("components of u*b11:", [str(f) for f in partial.components])
print("generic:", is_generic(partial))

print()
print("## Wronskians certify independence over the constants")
print("W(b11, b12) =", wronskian([spec.generator(1, 1), spec.generator(1, 2)], 1, spec))
print("W(b11, 2*b11) =", wronskian([spec.generator(1, 1), 2 * spec.generator(1, 1)], 1, spec))
