"""Differential field towers with eigen-generators.

A :class:`TowerSpec` fixes levels 1..l with ranks (n_1, ..., n_l).  Level i
has generators b[i][1..n_i] and eigenvalues c[i][1..n_i].  The eigenvalues
are formal indeterminates, algebraically and hence Q-linearly independent,
so the constants form the field Q(c[1][1], ..., c[l][n_l]), with any
adjoined u[i][j]; a constant is an Element with no generator in it.  The
derivation acts by

    delta b[i][j] = c[i][j] * b[i][j] * prod_{k<i} e_k,    e_k = sum_j b[k][j],

extended to the whole rational-function field by linearity, Leibniz and
the quotient rule.  On polynomials that is delta = sum_i P_i * E_i, where
P_i = prod_{k<i} e_k and E_i = sum_{v at level i} c_v x_v d/dx_v is the
Euler operator of level i, which maps term by term.  The twisted
derivation D_i divides delta by P_i, so the level-i generators are
D_i-eigenvectors with eigenvalue c[i][j].  The logarithmic derivative
with respect to D_i is D_i(x)/x.

A :class:`SeriesContext` interprets the same data numerically: delta
becomes d/dt, level-1 generators become truncated exponentials and higher
generators integrate the product of the lower e_k before exponentiating.
One table per (spec, context), ``_Terms``, holds the generator series,
their reciprocals, their powers and each monomial's product of generator
powers: a polynomial is evaluated by adding one scaled, cached array per
term in term order, which gives the same bits as multiplying every term
out afresh.  A denominator that is one monomial is evaluated by
multiplying with reciprocal series, with no division; any other
denominator, such as a power of e_k, is divided by series division.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, defaultdict
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import count, islice, takewhile
from math import log10

import deltatower  # annotations name deltatower.Series, which loads series only when resolved
from .elements import Element, ONE_ELEMENT
from .errors import BudgetExceeded, DomainViolation, LevelOutOfRange, LogOfZero, ParseError
from .errors import NonInvertibleSeries, Record, UnknownSymbol
from .polyring import Poly, Var, cancel, m_pairs, monomial, var_b, var_c, var_name


def _primes() -> Iterator[int]:
    """2, 3, 5, ...: each by trial division by the smaller primes up to its root."""
    primes: list[int] = []
    for k in count(2):
        if all(k % p for p in takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
            yield k


class TowerSpec(Record):
    """Index data of a tower: ranks (n_1, ..., n_l), plus optional numeric
    assignments for the eigenvalue symbols (decimal strings keyed by name)."""

    __slots__ = ("ranks", "assignments", "_caches")
    _compared = ("ranks", "assignments")

    def __init__(self, ranks: tuple[int, ...], assignments: tuple[tuple[str, str], ...] = ()):
        # only ints: int() would read True as 1 and truncate 1.7 to 1
        if not ranks or any(type(n) is not int or n < 1 for n in ranks):
            raise ValueError("ranks must be a nonempty sequence of positive integers")
        for name, _ in assignments:
            # a name that is no c[i][j] of the tower would be ignored, not evaluated;
            # no tower that can be evaluated has an index of 19 digits
            found = re.fullmatch(r"c\[([1-9][0-9]{0,17})\]\[([1-9][0-9]{0,17})\]", name)
            i, j = map(int, found.groups()) if found else (0, 0)
            if not 1 <= i <= len(ranks) or j > ranks[i - 1]:
                raise ValueError(f"assignment key {name!r} is no eigenvalue symbol of this tower")
        super().__init__(tuple(ranks), assignments, {})

    @property
    def ell(self) -> int:
        return len(self.ranks)

    def check_level(self, i: int) -> None:
        if not 1 <= i <= self.ell:
            raise LevelOutOfRange(f"level {i} outside 1..{self.ell}")

    def rank(self, i: int) -> int:
        self.check_level(i)
        return self.ranks[i - 1]

    def _check_index(self, i: int, j: int) -> None:
        if not 1 <= j <= self.rank(i):
            raise LevelOutOfRange(f"index {j} outside 1..{self.ranks[i - 1]} at level {i}")

    def symbol(self, i: int, j: int) -> Element:
        """The eigenvalue c[i][j] of b[i][j], an element of the constant field."""
        self._check_index(i, j)
        return Element.from_var(var_c(i, j))

    def generator_var(self, i: int, j: int) -> Var:
        self._check_index(i, j)
        return var_b(i, j)

    def generator(self, i: int, j: int) -> Element:
        return Element.from_var(self.generator_var(i, j))

    def generators(self, i: int) -> list[Element]:
        self.check_level(i)
        return [self.generator(i, j) for j in range(1, self.ranks[i - 1] + 1)]

    def e(self, i: int) -> Element:
        """The level-i solution e_i = sum_j b[i][j]."""
        self.check_level(i)
        key = ("e", i)
        if key not in self._caches:
            total = Poly()
            for j in range(1, self.ranks[i - 1] + 1):
                total = total + Poly.variable(var_b(i, j))
            self._caches[key] = Element(total)
        return self._caches[key]

    def prod_e_below(self, i: int) -> Element:
        """prod_{k<i} e_k (the twist divisor of D_i); 1 for i = 1."""
        self.check_level(i)
        key = ("prod_e", i)
        if key not in self._caches:
            out = ONE_ELEMENT
            for k in range(1, i):
                out = out * self.e(k)
            self._caches[key] = out
        return self._caches[key]

    # --- serialization ----------------------------------------------------

    def to_json(self) -> str:
        doc = {"ell": self.ell, "ranks": list(self.ranks)}
        if self.assignments:
            doc["assignments"] = dict(self.assignments)
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TowerSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"tower spec is not JSON: {exc}") from None
        if not isinstance(doc, dict) or "ranks" not in doc:
            raise ParseError("tower spec has no ranks field")
        if type(doc.get("ell", 0)) is not int:
            raise ParseError("malformed tower spec: ell must be a JSON integer")
        try:
            pairs = sorted((str(k), str(v)) for k, v in doc.get("assignments", {}).items())
            spec = cls(ranks=tuple(doc["ranks"]), assignments=tuple(pairs))
            if doc.get("ell", spec.ell) != spec.ell:
                raise ParseError("ell does not match the number of ranks")
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed tower spec: {exc}") from None
        return spec


def build_spec(utype: tuple[int, ...] | list[int]) -> TowerSpec:
    """Tower whose canonical analysis should have the given U-type."""
    return TowerSpec(ranks=tuple(utype))


# --- derivations ----------------------------------------------------------


def _derive_poly(p: Poly, spec: TowerSpec) -> Poly:
    """delta(p) = sum_i P_i * E_i(p), P_i = prod_{k<i} e_k, with the Euler
    operator E_i = sum_{v at level i} c_v x_v d/dx_v mapping coeff*m to
    e_v*coeff on m*c_v for each level-i generator v of exponent e_v in m.
    Two (m, v) can land on one monomial (b1*b2*c2 from v = b1, b1*b2*c1
    from v = b2): coefficients add up, and Poly drops a zero sum."""
    euler: dict[int, Counter] = defaultdict(Counter)  # i -> E_i(p), monomial -> coefficient
    for m, coeff in p.terms.items():
        for (kind, i, j), e in m_pairs(m):
            if kind == "b":
                euler[i][m + monomial(((("c", i, j), 1),))] += e * coeff
    out = Poly()
    for i in sorted(euler):
        out = out + Poly(euler[i]) * spec.prod_e_below(i).num
    return out


def derive(x: Element, spec: TowerSpec) -> Element:
    """delta(x), extended from the generators as a derivation.

    The quotient rule runs over g = gcd(f, delta f) for the denominator f:
    delta(n/f) = (delta(n) f/g - n delta(f)/g) / (f f/g), so delta(n/h^k)
    has denominator h^(k+1), not h^(2k)."""
    dnum = _derive_poly(x.num, spec)
    if x.den.is_const():
        return Element(dnum, x.den)
    dden = _derive_poly(x.den, spec)
    _, f, df = cancel(x.den, dden, "gcd(f, delta f)")
    return Element(dnum * f - x.num * df, x.den * f)


def d_twist(x: Element, i: int, spec: TowerSpec) -> Element:
    """The twisted derivation D_i = delta / prod_{k<i} e_k."""
    spec.check_level(i)
    return derive(x, spec) / spec.prod_e_below(i)


def logd(x: Element, i: int, spec: TowerSpec) -> Element:
    """Logarithmic derivative D_i(x)/x; undefined at zero."""
    if x.is_zero():
        raise LogOfZero("logarithmic derivative of zero")
    return d_twist(x, i, spec) / x


def logd_iter(x: Element, m: int, spec: TowerSpec) -> Element:
    """m-fold iterate of logd at level 1.

    Defined only while every earlier iterate is nonzero; DomainViolation
    reports the first index i with the i-th iterate equal to zero.
    """
    if m < 1:
        raise ValueError("iteration count must be >= 1")
    current = x
    for i in range(m):
        if current.is_zero():
            raise DomainViolation(i)
        current = logd(current, 1, spec)
    return current


# --- numerical interpretation ---------------------------------------------


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


@cache
def _series():
    """The series module, imported on first use so the exact half never loads
    numpy; cached, as an import statement costs microseconds per call."""
    from . import series

    return series


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
        digits = int((abs(q.numerator).bit_length() - q.denominator.bit_length()) * log10(2))
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
        Series = _series().Series
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

    def power(self, v: Var, e: int) -> deltatower.Series:
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


def _eval_poly(p: Poly, terms: _Terms) -> deltatower.Series:
    """Sum of coefficient * constant powers * generator product over the
    terms of p, added into one array in term order."""
    total = _series().Series.zero(terms.order)
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


def eval_series(x: Element, ctx: SeriesContext, spec: TowerSpec) -> deltatower.Series:
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
    return _series().residual(num * d * d, den * (n.deriv() * d - n * d.deriv()))


def random_element(
    rng: random.Random, spec: TowerSpec, *, allow_denominator: bool = True
) -> Element:
    """Random small element: one to three terms, each a coefficient k/q
    times at most two generator or constant symbols; denominators are
    generator monomials, so series evaluation stays invertible."""
    variables: list[Var] = []
    for i in range(1, spec.ell + 1):
        for j in range(1, spec.rank(i) + 1):
            variables.append(("b", i, j))
            variables.append(("c", i, j))
    num = Poly()
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff == 0:
            coeff = Fraction(1)
        pairs = [(rng.choice(variables), 1) for _ in range(rng.randint(0, 2))]
        num = num + Poly({monomial(pairs): coeff})
    if num.is_zero():
        num = Poly.const(1)
    den = Poly.const(1)
    if allow_denominator and rng.random() < 0.4:
        # a level-1 generator power: its series has constant term 1, so the
        # element stays evaluable; the delta-consistency check never divides
        level_one = [v for v in variables if v[0] == "b" and v[1] == 1]
        v = rng.choice(level_one)
        den = Poly.variable(v) ** rng.randint(1, 2)
    return Element(num, den)
