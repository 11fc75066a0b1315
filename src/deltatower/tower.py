"""Differential field towers with eigen-generators.

A :class:`TowerSpec` fixes levels 1..l with ranks (n_1, ..., n_l).  Level i
has generators b[i][1..n_i] and eigenvalues c[i][1..n_i].  The eigenvalues
are formal indeterminates, algebraically and hence Q-linearly independent,
so the constants form the field Q(c[1][1], ..., c[l][n_l]), with any
adjoined u[i][j]; a constant is an Element with no generator in it.  The
derivation acts by

    delta b[i][j] = c[i][j] * b[i][j] * P_i,    P_i = prod_{k<i} e_k,    e_k = sum_j b[k][j],

extended to the whole rational-function field by linearity, Leibniz and
the quotient rule.  On polynomials that is delta = sum_i P_i * E_i, where
E_i = sum_{v at level i} c_v x_v d/dx_v is the Euler operator of level i,
which maps term by term.  The twisted derivation D_i = delta / P_i
multiplies by the twist 1/P_i, built from its factored parts
(``TowerSpec.twist``), so the level-i generators are D_i-eigenvectors
with eigenvalue c[i][j].  The logarithmic derivative with respect to D_i
is D_i(x)/x.

The numeric interpretation of a tower, ``SeriesContext`` and
``eval_series``, is in ``series``.
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

from .elements import Element
from .errors import DomainViolation, LevelOutOfRange, LogOfZero, ParseError, Record
from .polyring import _SLOT_VARS, ONE, LevelSum, Poly, Var, cancel, level_sum, monomial, product
from .polyring import _fields, var_b, var_c


def _level_key(k: int, n: int) -> LevelSum:
    """(b[k][1], ..., b[k][n]): e_k as a ``polyring.level_sum`` key."""
    return tuple(var_b(k, j) for j in range(1, n + 1))


class TowerSpec(Record):
    """Index data of a tower: ranks (n_1, ..., n_l), plus optional numeric
    assignments for the eigenvalue symbols (decimal strings keyed by name).

    ``_caches`` holds what is computed once per spec and outlives a call,
    keyed by tuples whose first entry names the kind; equality and the hash
    ignore it.  ``("twist", i)``: 1/P_i.  ``("generator", i, j)``: the
    element b[i][j].  ``("default", order)``, ``("terms", ctx)`` and
    ``("point", values, prime)``: the default SeriesContext, the numeric
    table of a context and the point of the exact delta check, which
    ``series`` fills.  ``("eigenvalues", level, variables)`` and
    ``("weights", level, variables)``: the relations' logD_i of the
    variables and the table r -> r . lambda that a reduction run reads and
    fills."""

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
        """b[i][j], one Element per spec: its hash and text are computed once."""
        key = ("generator", i, j)
        if key not in self._caches:
            self._caches[key] = Element.from_var(self.generator_var(i, j))
        return self._caches[key]

    def generators(self, i: int) -> list[Element]:
        self.check_level(i)
        return [self.generator(i, j) for j in range(1, self.ranks[i - 1] + 1)]

    def e(self, i: int) -> Element:
        """The level-i solution e_i = sum_j b[i][j]."""
        return Element._parts(level_sum(_level_key(i, self.rank(i))))

    def twist(self, i: int) -> Element:
        """1/P_i = 1 / prod_{k<i} e_k, so D_i = delta * twist(i); 1 for i = 1.
        Built from its parts once per level, with no product split: a rank-1
        e_k = b[k][1] goes into the monomial, any other e_k is a level sum."""
        self.check_level(i)
        key = ("twist", i)
        if key not in self._caches:
            below = list(enumerate(self.ranks[: i - 1], 1))
            mono = monomial((var_b(k, 1), 1) for k, n in below if n == 1)
            sums = Counter({_level_key(k, n): 1 for k, n in below if n > 1})
            self._caches[key] = Element._parts(ONE, mono, sums)
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
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"malformed tower spec: an integer has more digits than {limit}") from None
        except RecursionError:
            raise ParseError("malformed tower spec: arrays or objects nest too deeply") from None
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


@cache
def _euler_slot(s: int) -> tuple[int, int] | None:
    """(i, the monomial c[i][j]) when slot s holds b[i][j], else None."""
    kind, i, j = _SLOT_VARS[s]
    return (i, monomial(((var_c(i, j), 1),))) if kind == "b" else None


def _derive_poly(p: Poly, spec: TowerSpec) -> Poly:
    """delta(p) = sum_i P_i * E_i(p), P_i = prod_{k<i} e_k, with the Euler
    operator E_i = sum_{v at level i} c_v x_v d/dx_v mapping coeff*m to
    e_v*coeff on m*c_v for each level-i generator v of exponent e_v in m.
    Each monomial is decoded once; P_1 = 1 multiplies nothing.  Two (m, v)
    can land on one monomial (b1*b2*c2 from v = b1, b1*b2*c1 from v = b2):
    coefficients add up, and Poly drops a zero sum."""
    euler: dict[int, dict] = {}  # i -> E_i(p), monomial -> coefficient
    for m, coeff in p.terms.items():
        for s, e in enumerate(_fields(m)):
            if e and (found := _euler_slot(s)):
                i, c = found
                level = euler.setdefault(i, {})
                level[m + c] = level.get(m + c, 0) + e * coeff
    levels = [product(Poly(euler[i]), spec.twist(i).den) for i in sorted(euler)]
    return sum(levels[1:], levels[0]) if levels else Poly()


def derive(x: Element, spec: TowerSpec) -> Element:
    """delta(x), extended from the generators as a derivation.  For x =
    n / (m prod_s s^a_s) over level sums s, with S = prod_s s, it is
    (delta(n) S - n (S delta(m)/m + sum_s a_s delta(s) S/s)) / (m prod_s s^(a_s + 1)):
    delta(m)/m is a polynomial, as delta b = c b P_i, and each level sum is
    normal, so its exponent rises by exactly one and only the monomial
    content can cancel; no gcd runs.  A residue r takes the quotient rule
    over g = gcd(r, delta r), so delta(1/h^k) has h^(k+1), not h^(2k)."""
    dnum = _derive_poly(x.num, spec)
    if x._den is ONE:
        return Element._parts(dnum)
    sums = [level_sum(s) for s in x.sums]
    dm = _derive_poly(Poly({x.mono: 1}), spec)
    log_part = product(Poly({t - x.mono: c for t, c in dm.terms.items()}), *sums)
    for k, (s, a) in enumerate(zip(sums, x.sums.values())):
        log_part = log_part + product(_derive_poly(s, spec), *sums[:k], *sums[k + 1:]).scale(a)
    s_all, res = product(*sums), x.res
    num = dnum * s_all - x.num * log_part
    if res is not ONE:
        _, f, df = cancel(res, _derive_poly(res, spec))
        num, res = num * f - x.num * s_all * df, res * f
    up = x.sums + Counter(x.sums.keys())
    return Element._parts(num, x.mono, up, res, () if res is ONE else up)


def d_twist(x: Element, i: int, spec: TowerSpec) -> Element:
    """The twisted derivation D_i = delta / prod_{k<i} e_k."""
    spec.check_level(i)
    return derive(x, spec) * spec.twist(i)


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


# perfbench reads these names from this module; they live in ``series``,
# which loads only when one of them is read (PEP 562)
_FORWARDED = ("SeriesContext", "eval_series", "delta_consistency_residual")


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import series

    return getattr(series, name)
