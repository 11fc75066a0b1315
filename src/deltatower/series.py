"""Truncated power series over float64, and the numeric oracle built on them.

A series of order N keeps coefficients s_0..s_{N-1}.  Arithmetic between
series of different orders truncates to the shorter one; differentiation
drops the top coefficient.  These are the numerical counterparts of the
exact elements: the derivation becomes d/dt.

This is the only module that imports numpy.  It imports the exact
modules; they load it only to resolve the few names that perfbench reads
from them (their ``_FORWARDED``).  A :class:`SeriesContext` interprets a
tower numerically: level-1 generators become truncated exponentials and
higher generators integrate the product of the lower e_k before
exponentiating.
One table per (spec, context), ``_Terms``, holds the generator series,
their reciprocals, their powers and each monomial's product of generator
powers: a polynomial is evaluated by adding one scaled, cached array per
term in term order, which gives the same bits as multiplying every term
out afresh.  A denominator that is one monomial is evaluated by
multiplying with reciprocal series, with no division; any other
denominator, such as a power of e_k, is divided by series division.

The oracle checks the exact side three ways: ``delta_consistency_residual``
compares ``tower.derive`` with d/dt, ``solve_prolonged`` and
``prolonged_residual`` solve and check the prolonged system x_i' = x_i
x_{i+1} behind the iterated logarithmic derivative, and
``series_rank_check`` is the numerical rank of all monomials y^r up to a
degree bound, where full row rank means no relation is detected
numerically.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice, takewhile

import numpy as np

from .elements import Element
from .errors import BudgetExceeded, NonInvertibleSeries, ParseError, Record, TruncationTooShort
from .errors import UnknownSymbol, ZeroInitialValue
from .operators import ProlongedSystem
from .polyring import Poly, Var, m_pairs, var_c, var_name
from .relations import degree_vectors
from .tower import TowerSpec, derive

class Series:
    """Coefficient vector (s_0, ..., s_{N-1}) of a truncated power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("series needs a one-dimensional, nonempty coefficient vector")

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(np.zeros(order))

    @classmethod
    def const(cls, value: float, order: int) -> "Series":
        c = np.zeros(order)
        c[0] = value
        return cls(c)

    @classmethod
    def t(cls, order: int) -> "Series":
        c = np.zeros(order)
        if order > 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def truncate(self, order: int) -> "Series":
        if order >= len(self.coeffs):
            return self
        return Series(self.coeffs[:order])

    @staticmethod
    def _align(a: "Series", b: "Series") -> tuple[np.ndarray, np.ndarray]:
        n = min(len(a.coeffs), len(b.coeffs))
        return a.coeffs[:n], b.coeffs[:n]

    def __add__(self, other: "Series") -> "Series":
        a, b = self._align(self, other)
        return Series(a + b)

    def __sub__(self, other: "Series") -> "Series":
        a, b = self._align(self, other)
        return Series(a - b)

    def __neg__(self) -> "Series":
        return Series(-self.coeffs)

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            a, b = self._align(self, other)
            return Series(np.convolve(a, b)[: len(a)])
        return Series(self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return Series(self.coeffs / float(other))
        a, b = self._align(self, other)
        if b[0] == 0.0:
            raise NonInvertibleSeries("denominator has zero constant term")
        n = len(a)
        out = np.zeros(n)
        for k in range(n):
            acc = a[k]
            if k:
                acc -= float(np.dot(out[:k], b[k:0:-1]))
            out[k] = acc / b[0]
        return Series(out)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            return Series.const(1.0, self.order) / (self ** (-n))
        result = Series.const(1.0, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def deriv(self) -> "Series":
        """d/dt; the result has one coefficient fewer."""
        if len(self.coeffs) == 1:
            return Series.zero(1)
        k = np.arange(1, len(self.coeffs))
        return Series(self.coeffs[1:] * k)

    def integ(self) -> "Series":
        """Antiderivative with value 0 at t=0, truncated to the same order."""
        out = np.zeros(len(self.coeffs))
        k = np.arange(1, len(self.coeffs))
        out[1:] = self.coeffs[: len(self.coeffs) - 1] / k
        return Series(out)

    def exp(self) -> "Series":
        """exp of the series; works for any constant term."""
        n = len(self.coeffs)
        h = self.coeffs
        out = np.zeros(n)
        out[0] = math.exp(h[0])
        # (k+1) g_{k+1} = sum_{i=0..k} (i+1) h_{i+1} g_{k-i}
        weighted = h[1:] * np.arange(1, n) if n > 1 else np.zeros(0)
        for k in range(n - 1):
            acc = float(np.dot(weighted[: k + 1], out[k::-1]))
            out[k + 1] = acc / (k + 1)
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({np.array2string(self.coeffs, precision=6, separator=', ')})"


def residual(a: Series, b: Series) -> float:
    """Scaled max-norm residual between two series.

    The difference is scaled by max(1, |a|, |b|) so the number means
    "relative disagreement" regardless of how fast the coefficients grow.
    A non-finite coefficient on either side gives ``inf``, so no check of
    the form ``residual < tol`` can pass on overflowed values.
    """
    n = min(len(a.coeffs), len(b.coeffs))
    x, y = a.coeffs[:n], b.coeffs[:n]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return math.inf
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def quiet_overflow():
    """A context in which numpy says nothing of overflow to inf or nan: the
    residual of such a series is inf, so its check FAILs instead."""
    return np.errstate(over="ignore", invalid="ignore")


# --- the tower interpreted numerically --------------------------------------


def _primes() -> Iterator[int]:
    """2, 3, 5, ...: each by trial division by the smaller primes up to its root."""
    primes: list[int] = []
    for k in count(2):
        if all(k % p for p in takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
            yield k


class SeriesContext(Record):
    """Numeric interpretation: truncation order and symbol values.

    ``values`` assigns reals to constant symbols; within each level the
    assigned values must be pairwise distinct.  Every generator is 1 at t=0.
    """

    __slots__ = _compared = ("order", "values")

    def __init__(self, order: int, values: tuple[tuple[Var, float], ...]):
        if order < 2:
            raise ValueError("truncation order must be >= 2")
        by_level: dict[int, list[float]] = {}
        for (kind, level, _), val in values:
            if kind == "c":
                by_level.setdefault(level, []).append(val)
        for level, vals in by_level.items():
            if len(set(vals)) != len(vals):
                raise ParseError(f"assigned values at level {level} are not pairwise distinct")
        super().__init__(order, values)

    @classmethod
    def default(cls, spec: TowerSpec, order: int = 16) -> "SeriesContext":
        """The primes 2, 3, ..., 61 assigned cyclically to the symbols in index
        order, except that the 19th symbol of a level and beyond take the 19th
        prime and beyond, so a level's defaults stay distinct.  Explicit
        assignments of the spec come first; a default equal to an explicit
        value of its level moves to the smallest larger prime that no symbol
        of the level takes.  One context per (spec, order)."""
        key = ("default", order)
        if key in spec._caches:
            return spec._caches[key]
        explicit = dict(spec.assignments)
        values = []
        symbols = [var_c(i, j) for i, n in enumerate(spec.ranks, 1) for j in range(1, n + 1)]
        primes = list(islice(_primes(), max(18, max(spec.ranks))))
        for k, v in enumerate(symbols):
            name, j = var_name(v), v[2]
            prime = primes[k % 18] if j <= 18 else primes[j - 1]
            text = explicit.get(name, str(prime))
            try:
                values.append((v, float(Fraction(text))))
            except (ValueError, ZeroDivisionError, OverflowError):
                message = f"assignment {name}={text!r} is not a decimal in float range"
                raise ParseError(message) from None
        given = {(v[1], x) for v, x in values if var_name(v) in explicit}
        taken = {(v[1], x) for v, x in values}
        for k, (v, x) in enumerate(values):
            if (v[1], x) in given and var_name(v) not in explicit:
                x = next(p for p in _primes() if p > x and (v[1], p) not in taken)
                taken.add((v[1], x))
                values[k] = (v, float(x))
        spec._caches[key] = cls(order=order, values=tuple(values))
        return spec._caches[key]

    def value_map(self) -> dict[Var, float]:
        return dict(self.values)


def _lookup(table: dict, v: Var):
    """table[v], or the error that names the symbol the context cannot evaluate."""
    try:
        return table[v]
    except KeyError:
        raise UnknownSymbol(f"{var_name(v)} has no series or value in this tower") from None


def to_float(q: Fraction) -> float:
    """q as a float; BudgetExceeded when q is past the float range.  The
    message names q's magnitude from bit lengths: q may have more digits
    than an int may print."""
    try:
        return float(q)
    except OverflowError:
        digits = int((abs(q.numerator).bit_length() - q.denominator.bit_length()) * math.log10(2))
        raise BudgetExceeded(f"coefficient of about 10^{digits} is outside float range") from None


def _power(values: dict[Var, float], v: Var, e: int) -> float:
    try:
        return _lookup(values, v) ** e
    except OverflowError:
        raise BudgetExceeded(f"{var_name(v)}^{e} is outside float range") from None


class _Terms:
    """The numeric table of one (spec, ctx), kept in the spec's cache: the
    generator series b[1][j] -> exp(c t) and, above level 1, b[i][j] ->
    exp(c * integral of prod_{k<i} e_k), their reciprocals exp(-c * phase),
    the powers b^e and b^-e, keyed (v, e) and (v, -e), and each monomial's
    generator product (its powers b^e multiplied in m_pairs order, or None)
    and constant powers.  Every cached array is read-only.  A monomial whose
    symbol has no value, or whose power leaves float range, raises and
    stores no entry."""

    __slots__ = ("order", "values", "gens", "recips", "products", "powers")

    def __init__(self, ctx: SeriesContext, spec: TowerSpec):
        self.order = ctx.order
        self.values = ctx.value_map()
        self.gens: dict[Var, Series] = {}
        self.recips: dict[Var, Series] = {}
        self.products: dict[int, tuple] = {}  # monomial -> (product array or None, constant powers)
        self.powers: dict[tuple[Var, int], Series] = {}  # (v, e) -> b^e, (v, -e) -> b^-e
        phase = Series.t(ctx.order)
        accumulated: Series | None = None  # prod_{k<i} e_k as a series
        for i in range(1, spec.ell + 1):
            if accumulated is not None:
                phase = accumulated.integ()
            level_sum = Series.zero(ctx.order)
            for j in range(1, spec.rank(i) + 1):
                v = spec.generator_var(i, j)
                c_hat = _lookup(self.values, ("c", i, j))
                s = (phase * c_hat).exp()
                self.gens[v], self.recips[v] = s, (phase * -c_hat).exp()
                level_sum = level_sum + s
            accumulated = level_sum if accumulated is None else accumulated * level_sum
        for s in [*self.gens.values(), *self.recips.values()]:
            s.coeffs.flags.writeable = False

    def power(self, v: Var, e: int) -> Series:
        """b^e, from the reciprocal series when e < 0; cached and read-only."""
        if (v, e) not in self.powers:
            s = _lookup(self.gens if e > 0 else self.recips, v) ** abs(e)
            s.coeffs.flags.writeable = False
            self.powers[v, e] = s
        return self.powers[v, e]

    def product(self, m: int) -> tuple:
        if m in self.products:
            return self.products[m]
        factor = None
        constants = []
        for v, e in m_pairs(m):
            if v[0] == "b":
                s = self.power(v, e)
                factor = s if factor is None else factor * s
            else:
                constants.append(_power(self.values, v, e))
        if factor is not None:
            factor.coeffs.flags.writeable = False
            factor = factor.coeffs
        self.products[m] = factor, tuple(constants)
        return self.products[m]


def _terms(ctx: SeriesContext, spec: TowerSpec) -> _Terms:
    """The numeric table of (spec, ctx); equal contexts share one."""
    key = ("terms", ctx)
    if key not in spec._caches:
        spec._caches[key] = _Terms(ctx, spec)
    return spec._caches[key]


def _eval_poly(p: Poly, terms: _Terms) -> Series:
    """Sum of coefficient * constant powers * generator product over the
    terms of p, added into one array in term order."""
    total = Series.zero(terms.order)
    out = total.coeffs
    for m, coeff in p.terms.items():
        scalar = to_float(coeff)
        factor, constants = terms.product(m)
        for c in constants:
            scalar *= c
        if factor is None:
            # the other coefficients would add 0.0: a running sum that
            # starts at +0.0 is never -0.0, so that changes no bit
            out[0] += scalar
        else:
            out += factor * scalar
    return total


def eval_series(x: Element, ctx: SeriesContext, spec: TowerSpec) -> Series:
    """Interpret an element as a truncated power series in t.  A monomial
    denominator (monic, so its coefficient is 1) multiplies the numerator by
    reciprocal series; any other one is divided by series division."""
    terms = _terms(ctx, spec)
    num = _eval_poly(x.num, terms)
    if len(x.den.terms) > 1:
        return num / _eval_poly(x.den, terms)
    [den] = x.den.terms
    scalar = 1.0
    for v, e in m_pairs(den):
        if v[0] == "b":
            num = num * terms.power(v, -e)
        else:
            scalar *= _power(terms.values, v, e)
    if scalar == 0.0:
        raise NonInvertibleSeries("denominator has zero constant term")
    return num / scalar


def delta_consistency_residual(x: Element, ctx: SeriesContext, spec: TowerSpec) -> float:
    """Scaled disagreement between derive(x) and d/dt of x as series, with no
    division: for x = n/d and derive(x) = N/D it compares N d^2 with
    D (n' d - n d') over the shared coefficients.  d(0) = 0 raises
    NonInvertibleSeries, as evaluating x would."""
    terms = _terms(ctx, spec)
    dx = derive(x, spec)
    n, d, num, den = (_eval_poly(p, terms) for p in (x.num, x.den, dx.num, dx.den))
    if d[0] == 0.0:
        raise NonInvertibleSeries("denominator has zero constant term")
    return residual(num * d * d, den * (n.deriv() * d - n * d.deriv()))


# --- the prolonged system ---------------------------------------------------


def _h_series(system: ProlongedSystem, order: int, h_series: Series | None) -> Series:
    """h as a series of the given order: ``h_series`` truncated, or, when
    none is given, the constant series of a rational h (ValueError else)."""
    if h_series is None:
        return Series.const(to_float(system.h.as_rational()), order)
    if h_series.order < order:
        raise ValueError("the series of h is shorter than the requested order")
    return h_series.truncate(order)


def solve_prolonged(
    system: ProlongedSystem,
    initial_values: list[float],
    order: int,
    h_series: Series | None = None,
) -> list[Series]:
    """Truncated series solution with the given values at t=0.

    A non-rational h comes as its series ``h_series``, which the caller
    can hand to `prolonged_residual` too; a rational h needs none.
    """
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
    with quiet_overflow():
        for k in range(order - 1):
            for i in range(n):
                rhs = h[: k + 1] if i == n - 1 else xs[i + 1, : k + 1]
                conv = float(np.dot(xs[i, : k + 1], rhs[::-1]))
                xs[i, k + 1] = conv / (k + 1)
    return [Series(xs[i]) for i in range(n)]


def prolonged_residual(
    system: ProlongedSystem,
    solution: list[Series],
    h_series: Series | None = None,
) -> float:
    """Scaled residual of delta x_i - x_i x_{i+1} (and the h row), with
    ``h_series`` as in `solve_prolonged`."""
    worst = 0.0
    n = system.n
    h_series = _h_series(system, solution[-1].order, h_series)
    for i in range(n):
        lhs = solution[i].deriv()
        rhs = solution[i] * (solution[i + 1] if i < n - 1 else h_series)
        worst = max(worst, residual(lhs, rhs))
    return worst


# --- the rank oracle --------------------------------------------------------


# singular values of the unit-normalised monomial rows above this count
# towards the numerical rank
RANK_THRESHOLD = 1e-6


class RankReport(Record):
    """Outcome of the numerical rank oracle."""

    __slots__ = _compared = ("rows", "order", "smallest_singular_value", "rank")

    @property
    def full_rank(self) -> bool:
        return self.rank == self.rows


def series_rank_check(
    variables: list[Element],
    degree_bound: int,
    ctx: SeriesContext,
    spec: TowerSpec,
) -> RankReport:
    """Numerical independence oracle over all monomials of degree <= bound.

    Rows are unit-normalized truncated series of the monomials (constant
    monomial included); the report carries the smallest singular value and
    the rank at RANK_THRESHOLD.

    The rank is that of the numeric specialisation at ``ctx.values``, not of
    the monomials over Q(c).  It mirrors the prover's verdict only when the
    assigned values are Q-linearly independent and well separated: under a
    rational relation such as 2 + 3 = 5 distinct monomials become the same
    exponential and the rank drops, and nearly colliding exponents can fall
    below the threshold.
    """
    vectors = degree_vectors(len(variables), degree_bound, include_zero=True)
    if len(vectors) > ctx.order:
        raise TruncationTooShort(
            f"{len(vectors)} monomials exceed the truncation order {ctx.order}"
        )
    var_series = [eval_series(v, ctx, spec) for v in variables]
    rows = []
    for r in vectors:
        row = None
        for s, e in zip(var_series, r):
            if e:
                p = s**e
                row = p if row is None else row * p
        if row is None:
            row = Series.const(1.0, ctx.order)
        rows.append(row.coeffs)
    matrix = np.array(rows)
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    matrix = matrix / norms[:, None]
    singular = np.linalg.svd(matrix, compute_uv=False)
    return RankReport(
        rows=len(vectors),
        order=ctx.order,
        smallest_singular_value=float(singular[-1]),
        rank=int(np.sum(singular > RANK_THRESHOLD)),
    )

