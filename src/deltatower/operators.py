"""Linear differential operators over the tower.

A factored operator at level i is (D_i - c_1) ... (D_i - c_m), held as
its level and its tuple of constant eigenvalues.  Because the derivations
kill constants, the factors commute and the expanded form has the
elementary-symmetric-function coefficients; both forms act on elements
through `apply_operator`.  Operator text ``(D[i] - c) * ...`` is only
printed (`FactoredOperator.to_text`); nothing parses it.

Also here: the eigen-decomposition of normal-form solutions, Wronskian
determinants as independence certificates, and the prolonged first-order
system x_i' = x_i x_{i+1} behind the iterated logarithmic derivative,
with a truncated-series solver.
"""

from __future__ import annotations

import deltatower  # annotations name deltatower.Series, which loads series only when resolved
from .elements import Element, ONE_ELEMENT, ZERO_ELEMENT
from .errors import NotNormalForm, Record, ZeroInitialValue
from .polyring import Poly, m_pairs, monomial
from .tower import TowerSpec, d_twist, to_float


class FactoredOperator(Record):
    """(D_i - c_1) ... (D_i - c_m) at level i, with constant eigenvalues c_k."""

    __slots__ = _compared = ("level", "eigenvalues")

    def __init__(self, level: int, eigenvalues: tuple[Element, ...]):
        if level < 1:
            raise ValueError("level must be >= 1")
        if not eigenvalues:
            raise ValueError("a factored operator needs at least one factor")
        if any(not c.is_constant() for c in eigenvalues):
            raise ValueError("eigenvalues must be free of generator symbols")
        super().__init__(level, eigenvalues)

    def to_text(self) -> str:
        """Operator text ``(D[i] - c_1) * ...``; a sum or quotient eigenvalue
        is parenthesised."""
        parts = []
        for c in self.eigenvalues:
            text = str(c)
            if len(c.num.terms) > 1 or not c.den.is_const():
                text = f"({text})"
            parts.append(f"(D[{self.level}] - {text})")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


class ExpandedOperator(Record):
    """sum_k a_k D_i^k with a_m = 1, coefficients (a_0, ..., a_m) constant."""

    __slots__ = _compared = ("level", "coefficients")

    def __init__(self, level: int, coefficients: tuple[Element, ...]):
        if len(coefficients) < 2:
            raise ValueError("an expanded operator has order >= 1")
        if coefficients[-1] != ONE_ELEMENT:
            raise ValueError("expanded operators are monic")
        if any(not a.is_constant() for a in coefficients):
            raise ValueError("coefficients must be constant")
        super().__init__(level, coefficients)


def build_E(spec: TowerSpec, i: int) -> FactoredOperator:
    """The level-i defining operator (D_i - c[i][1]) ... (D_i - c[i][n_i])."""
    spec.check_level(i)
    eigenvalues = tuple(spec.symbol(i, j) for j in range(1, spec.rank(i) + 1))
    return FactoredOperator(i, eigenvalues)


def apply_operator(
    op: FactoredOperator | ExpandedOperator, x: Element, spec: TowerSpec
) -> Element:
    """Apply an operator; factored products act rightmost factor first."""
    if isinstance(op, FactoredOperator):
        out = x
        for c in reversed(op.eigenvalues):
            out = d_twist(out, op.level, spec) - c * out
        return out
    total = ZERO_ELEMENT
    power = x
    for k, a_k in enumerate(op.coefficients):
        if k > 0:
            power = d_twist(power, op.level, spec)
        total = total + a_k * power
    return total


def expand(op: FactoredOperator) -> ExpandedOperator:
    """Multiply the factors out; with constant eigenvalues this is the
    symmetric-function expansion and is independent of the factor order."""
    coeffs = [ONE_ELEMENT]  # polynomial prod (X - c_j), lowest degree first
    for c in op.eigenvalues:
        nxt = [ZERO_ELEMENT] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + a
            nxt[k] = nxt[k] - c * a
        coeffs = nxt
    return ExpandedOperator(op.level, tuple(coeffs))


class EigenDecomposition(Record):
    """Components f_j with (D_i - c[i][j]) f_j = 0 and sum f_j = f."""

    __slots__ = _compared = ("level", "components")

    def total(self) -> Element:
        out = ZERO_ELEMENT
        for f in self.components:
            out = out + f
        return out


def decompose(f: Element, i: int, spec: TowerSpec) -> EigenDecomposition:
    """Split a normal-form element sum_j u_j b[i][j] into its eigencomponents.

    Raises NotNormalForm when f is not a constant-linear combination of the
    level-i generators.
    """
    spec.check_level(i)
    if not f.den.is_const():
        raise NotNormalForm("denominator must be constant in normal form")
    n = spec.rank(i)
    parts: dict[int, Element] = {}
    for m, coeff in f.num.terms.items():
        pairs = m_pairs(m)
        gen_pairs = [(v, e) for v, e in pairs if v[0] == "b"]
        if len(gen_pairs) != 1 or gen_pairs[0][1] != 1:
            raise NotNormalForm(f"monomial outside the level-{i} generator span in {f}")
        (kind, level, j), _ = gen_pairs[0]
        if level != i or not 1 <= j <= n:
            raise NotNormalForm(f"generator b[{level}][{j}] is not at level {i}")
        rest = monomial((v, e) for v, e in pairs if v[0] != "b")
        term = Element(Poly({rest: coeff}), f.den) * spec.generator(i, j)
        parts[j] = parts.get(j, ZERO_ELEMENT) + term
    components = tuple(parts.get(j, ZERO_ELEMENT) for j in range(1, n + 1))
    # Internal consistency: eigen-equations and the sum must come back exact.
    for j, comp in enumerate(components, start=1):
        check = d_twist(comp, i, spec) - spec.symbol(i, j) * comp
        if not check.is_zero():
            raise RuntimeError(f"component {j} fails its eigen-equation")
    if EigenDecomposition(i, components).total() != f:
        raise RuntimeError("decomposition does not sum back to the input")
    return EigenDecomposition(i, components)


def is_generic(d: EigenDecomposition) -> bool:
    """Genericity criterion: every eigencomponent nonzero."""
    return all(not comp.is_zero() for comp in d.components)


def wronskian(xs: list[Element], i: int, spec: TowerSpec) -> Element:
    """det [D_i^k(x_j)]; nonzero certifies independence over the constants."""
    if not xs:
        raise ValueError("wronskian of an empty list")
    spec.check_level(i)
    rows: list[list[Element]] = [list(xs)]
    for _ in range(len(xs) - 1):
        rows.append([d_twist(x, i, spec) for x in rows[-1]])
    return _det(rows)


def _det(rows: list[list[Element]]) -> Element:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO_ELEMENT
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in rows[1:]]
        cofactor = entry * _det(minor)
        total = total + cofactor if col % 2 == 0 else total - cofactor
    return total


class ProlongedSystem(Record):
    """x_i' = x_i x_{i+1} for i < n and x_n' = h x_n."""

    __slots__ = _compared = ("n", "h")

    def __init__(self, n: int, h: Element):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        super().__init__(n, h)

    def equations(self) -> list[str]:
        eqs = [f"delta x_{i} = x_{i}*x_{i + 1}" for i in range(1, self.n)]
        rhs = "0" if self.h.is_zero() else f"({self.h})*x_{self.n}"
        eqs.append(f"delta x_{self.n} = {rhs}")
        return eqs

    def __str__(self) -> str:
        return "{" + "; ".join(self.equations()) + "}"


def logd_system(n: int, h: Element | int) -> ProlongedSystem:
    """Prolonged system of the n-fold logarithmic derivative with right side h."""
    if isinstance(h, int):
        h = Element.from_rational(h)
    return ProlongedSystem(n, h)


def _h_series(
    system: ProlongedSystem, order: int, h_series: deltatower.Series | None
) -> deltatower.Series:
    """h as a series of the given order: ``h_series`` truncated, or, when
    none is given, the constant series of a rational h (ValueError else)."""
    from .series import Series

    if h_series is None:
        return Series.const(to_float(system.h.as_rational()), order)
    if h_series.order < order:
        raise ValueError("the series of h is shorter than the requested order")
    return h_series.truncate(order)


def solve_prolonged(
    system: ProlongedSystem,
    initial_values: list[float],
    order: int,
    h_series: deltatower.Series | None = None,
) -> list[deltatower.Series]:
    """Truncated series solution with the given values at t=0.

    A non-rational h comes as its series ``h_series``, which the caller
    can hand to `prolonged_residual` too; a rational h needs none.
    """
    import numpy as np

    from .series import Series

    if len(initial_values) != system.n:
        raise ValueError(f"expected {system.n} initial values")
    if any(v == 0 for v in initial_values):
        raise ZeroInitialValue("initial values must be nonzero")
    h_series = _h_series(system, order, h_series)
    n = system.n
    xs = np.zeros((n, order))
    xs[:, 0] = initial_values
    h = h_series.coeffs
    # huge initial values overflow to inf/nan here; the residual check FAILs them
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(order - 1):
            for i in range(n):
                rhs = h[: k + 1] if i == n - 1 else xs[i + 1, : k + 1]
                conv = float(np.dot(xs[i, : k + 1], rhs[::-1]))
                xs[i, k + 1] = conv / (k + 1)
    return [Series(xs[i]) for i in range(n)]


def prolonged_residual(
    system: ProlongedSystem,
    solution: list[deltatower.Series],
    h_series: deltatower.Series | None = None,
) -> float:
    """Scaled residual of delta x_i - x_i x_{i+1} (and the h row), with
    ``h_series`` as in `solve_prolonged`."""
    from .series import residual as series_residual

    worst = 0.0
    n = system.n
    h_series = _h_series(system, solution[-1].order, h_series)
    for i in range(n):
        lhs = solution[i].deriv()
        rhs = solution[i] * (solution[i + 1] if i < n - 1 else h_series)
        worst = max(worst, series_residual(lhs, rhs))
    return worst
