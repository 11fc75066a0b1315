"""Truncated power series as the numerical oracle.

The derivation becomes d/dt: level-1 generators are exponentials and the
prolonged first-order system x_i' = x_i x_{i+1} reproduces the iterated
logarithmic derivative order by order.
"""

import math
import random

from deltatower import build_spec, derive, eval_series, logd_system, solve_prolonged
from deltatower.series import SeriesContext, prolonged_residual, residual
from deltatower.textio import parse_element
from deltatower.tower import random_element

spec = build_spec((2, 1))
ctx = SeriesContext.default(spec, order=12)

print("## generators become exponentials (c11 -> 2)")
print("b11(t):", eval_series(spec.generator(1, 1), ctx, spec).coeffs[:5])

print()
print("## the derivation commutes with the series interpretation")
rng = random.Random(5)
x = random_element(rng, spec)
lhs = eval_series(derive(x, spec), ctx, spec)
rhs = eval_series(x, ctx, spec).deriv()
print("element:", x)
print("residual:", residual(lhs, rhs))

print()
print("## a monomial denominator is a product of reciprocal series (c13 -> 5)")
wide = build_spec((3,))
s = eval_series(parse_element("1/b[1][3]^2"), SeriesContext.default(wide, order=32), wide)
exact = [(-10) ** k / math.factorial(k) for k in range(32)]
print("1/b13^2 coefficient 31:", s.coeffs[31], " exact (-10)^31/31!:", exact[31])
print("largest relative error:", max(abs(a - b) / abs(b) for a, b in zip(s.coeffs, exact)))

print()
print("## the prolonged log-derivative system")
system = logd_system(2, 0)
print(system)
xs = solve_prolonged(system, [1.0, 1.0], 5)
print("x_1:", xs[0].coeffs, " (exp(t))")
print("x_2:", xs[1].coeffs)
print("defining-equation residual:", prolonged_residual(system, xs))

print()
print("## three levels with random starting values")
system3 = logd_system(3, 0)
xs3 = solve_prolonged(system3, [1.5, -0.5, 2.0], 12)
print("residual:", prolonged_residual(system3, xs3))
current = xs3[0]
for _ in range(3):
    current = current.deriv() / current.truncate(current.order - 1)
print("logd^3(x_1) max coefficient:", current.max_abs())
