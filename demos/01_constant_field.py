"""Exact arithmetic in the field of formal constants.

The eigenvalue symbols c[i][j] are independent indeterminates, so every
computation below is exact: no floats, no tolerances, and equality means
identical canonical forms.
"""

from deltatower import parse_element, qlinear_dot, qlinear_independent

c11, c12 = parse_element("c[1][1]"), parse_element("c[1][2]")

print("## field arithmetic in canonical form")
print("(c11 + c12) - c12      =", (c11 + c12) - c12)
print("c11 / c11              =", c11 / c11)

quotient = (c11 * c11 - c12 * c12) / (c11 - c12)
print("(c11^2 - c12^2)/(c11 - c12) =", quotient)
print("re-multiplied check:", quotient * (c11 - c12) == c11 * c11 - c12 * c12)

print()
print("## parsing and printing round-trip bit-exactly")
x = parse_element("(b[1][1] + 1)/(b[1][2] + 1)")
print("parsed:", x)
print("round-trip equal:", parse_element(str(x)) == x)

print()
print("## Q-linear independence is decided exactly")
print("dot((1,2), (c11,c12)) =", qlinear_dot((1, 2), [c11, c12]))
print("[c11, c12] independent:", qlinear_independent([c11, c12]))
print("[c11, 2*c11] independent:", qlinear_independent([c11, 2 * c11]))
print(
    "[c11+c12, c11-c12, c11] independent:",
    qlinear_independent([c11 + c12, c11 - c12, c11]),
)
