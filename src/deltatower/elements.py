"""Exact rational expressions over the constant and generator symbols.

An :class:`Element` is a reduced fraction num/den of two
:class:`~deltatower.polyring.Poly` values, den monic in graded lex order,
zero ``0/1``.  den is held as monomial * level-sum powers * residue: level
sums (``polyring.level_sum``) are linear, so irreducible, and normal, and
the residue is ``polyring.ONE`` on every tower path.  Operations combine
exponents by min, max and sum and cancel a numerator by its monomial
content, by trial division by level sums, and by a gcd only against a
nonconstant residue, so over bare monomial denominators no gcd runs.
``Element(num, den)`` splits den once (``polyring.known_factors``);
``den`` is expanded on first read.  ``==`` compares numerators and
monomials, then the other parts or, where those differ (a split may leave
a level sum in a residue), the expanded dens; equal elements print alike.
A rational element hashes as its ``Fraction``, any other as (num, den).
The hash and the printed text are computed on first use and kept on the
element; a copy or an unpickled element computes its own.
Over the shared constant denominator ``polyring.ONE``, sums, products and
rational multiples touch no part.  Elements are constant expressions
(``c[i][j]``, ``u[i][j]``) or tower elements in the generators
``b[i][j]``.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from math import log10

from .errors import BudgetExceeded, DivisionByZero
from .polyring import ONE, LevelSum, Monomial, Poly, Var, _check, _m_min, cancel, cancel_monomial
from .polyring import exact_div, known_factors, level_sum, m_pairs, monomial, printed_terms
from .polyring import product

_COERCIBLE = (int, Fraction)
_NO_SUMS: Counter[LevelSum] = Counter()  # shared, so never mutated


def _expand(mono: Monomial, sums: Counter[LevelSum], res: Poly) -> Poly:
    return product(res.mul_term(mono, 1), *(level_sum(s) ** k for s, k in sorted(sums.items())))


class Element:
    """Canonical fraction num/den of multivariate polynomials over Q, with
    den = mono * prod_S level_sum(S)^sums[S] * res."""

    __slots__ = ("num", "mono", "sums", "res", "_den", "_hash", "_str")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        mono, sums, res = known_factors(den)
        self._set(num, mono, sums, res, sums)

    def _set(self, num: Poly, mono: Monomial = 0, sums: Counter[LevelSum] = _NO_SUMS,
             res: Poly = ONE, keys=None) -> None:
        """Store num / (mono * prod level_sum(S)^sums[S] * res) with res
        monic.  Unless ``keys`` is None, num is first cancelled against the
        parts: its monomial content, level_sum(S) for each S of ``keys``,
        and a nonconstant res by the gcd."""
        if num.is_zero():
            mono, sums, res = 0, _NO_SUMS, ONE
        elif keys is not None:
            num, mono = cancel_monomial(num, mono)
            if sums:
                left = Counter(sums)
                for s in keys:
                    while left[s] and (q := exact_div(num, level_sum(s))) is not None:
                        num, left[s] = q, left[s] - 1
                sums = +left
            if not res.is_const():
                _, num, res = cancel(num, res)
        if res is not ONE:
            inv = Fraction(1) / res.lead()[1]
            num, res = num.scale(inv), ONE if res.is_const() else res.scale(inv)
        _check(mono)  # a product of two monomials may pass MAX_EXPONENT
        self.num, self.mono, self.sums, self.res = num, mono, sums, res
        self._den = ONE if not mono and not sums and res is ONE else None

    @classmethod
    def _parts(cls, num: Poly, mono: Monomial = 0, sums: Counter[LevelSum] = _NO_SUMS,
               res: Poly = ONE, keys=None) -> "Element":
        out = cls.__new__(cls)
        out._set(num, mono, sums, res, keys)
        return out

    def __reduce__(self):
        """Pickle and copy by the parts: a copy of ONE is rebuilt as ONE."""
        return Element._parts, (self.num, self.mono, self.sums, self.res)

    @property
    def den(self) -> Poly:
        """The expanded denominator, built on first read."""
        if self._den is None:
            self._den = _expand(self.mono, self.sums, self.res)
        return self._den

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, c) -> "Element":
        return cls._parts(Poly.const(c))

    @classmethod
    def from_var(cls, v: Var) -> "Element":
        return cls._parts(Poly.variable(v))

    # --- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_rational(self) -> bool:
        return self._den is ONE and self.num.is_const()

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not a rational number")
        return self.num.const_value() if not self.num.is_zero() else Fraction(0)

    def is_constant(self) -> bool:
        """True when no generator symbol occurs (the derivation kills it)."""
        return not (self.num.has_generator() or self._den is not ONE and self.den.has_generator())

    def variables(self) -> set[Var]:
        return self.num.variables() | self.den.variables()

    # --- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Element | None":
        if isinstance(x, Element):
            return x
        if isinstance(x, _COERCIBLE):
            return Element.from_rational(x)
        return None

    def _plus(self, o: "Element", negate: bool) -> "Element":
        """self + o or self - o by Henrici's addition (Knuth, TAOCP vol. 2,
        4.5.1): with g = gcd(d1, d2) part by part, t = n1 d2/g +- n2 d1/g
        over the lcm g (d1/g) (d2/g) can share only a factor of g, and a
        level sum only if d1 and d2 hold it to one power.  A residue may
        hide a level sum, so then t is cancelled against all of the lcm."""
        if self._den is o._den is ONE:
            return Element._parts(self.num - o.num if negate else self.num + o.num)
        mono, sums = _m_min(self.mono, o.mono), self.sums & o.sums
        if self.res == o.res:
            res, mine, theirs = self.res, ONE, ONE
        else:
            res, mine, theirs = cancel(self.res, o.res)
        a = self.num * _expand(o.mono - mono, o.sums - sums, theirs)
        b = o.num * _expand(self.mono - mono, self.sums - sums, mine)
        lcm = self.mono + o.mono - mono, self.sums | o.sums, product(res, mine, theirs)
        keys = [s for s in sums if self.sums[s] == o.sums[s]] if self.res is o.res is ONE else lcm[1]
        return Element._parts(a - b if negate else a + b, *lcm, keys)

    @staticmethod
    def _times(x: "Element", y: "Element") -> "Element":
        """x y by Henrici's multiplication: only the numerator of each can
        share factors with the denominator of the other, so those two
        cancellations replace one of the whole product.  A level sum of
        both denominators divides neither numerator, so it is not tried."""
        if x._den is y._den is ONE:
            return Element._parts(x.num * y.num)
        a = Element._parts(x.num, y.mono, y.sums, y.res, [s for s in y.sums if not x.sums[s]])
        b = Element._parts(y.num, x.mono, x.sums, x.res, [s for s in x.sums if not y.sums[s]])
        return Element._parts(a.num * b.num, a.mono + b.mono, a.sums + b.sums, product(a.res, b.res))

    def _reciprocal(self) -> "Element":
        """den/num for a nonzero self, with num split into the parts."""
        return Element._parts(self.den, *known_factors(self.num))

    def __add__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, negate=False)

    __radd__ = __add__

    def __sub__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, negate=True)

    def __rsub__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Element":
        return Element._parts(-self.num, self.mono, self.sums, self.res)

    def __mul__(self, other) -> "Element":
        if type(other) in _COERCIBLE:
            # a nonzero rational is a unit: num stays coprime to the monic den
            if not other:
                return ZERO_ELEMENT
            return Element._parts(self.num.scale(other), self.mono, self.sums, self.res)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element._times(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero element")
        if o.is_rational():
            # a nonzero rational: multiply by its reciprocal, as __mul__ does
            return self * (Fraction(1) / o.num.const_value())
        return Element._times(self, o._reciprocal())

    def __rtruediv__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "Element":
        """Powers of a coprime pair are coprime, so nothing cancels."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return self._reciprocal() ** -n
        mono = monomial((v, e * n) for v, e in m_pairs(self.mono))
        sums = Counter({s: k * n for s, k in self.sums.items() if n})
        res = ONE if self.res is ONE or not n else self.res**n
        return Element._parts(self.num**n, mono, sums, res)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and (self._den is o._den is ONE or self.mono == o.mono and (
            self.sums == o.sums and self.res == o.res or self.den == o.den))

    def __hash__(self) -> int:
        """hash(Fraction) of a rational element, which == equates with the
        int or Fraction, else hash((num, den)); computed on the first call."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.num.const_value() if self.is_rational() else (self.num, self.den))
            return self._hash

    # --- printing ---------------------------------------------------------

    def __str__(self) -> str:
        """format_element(self), computed on the first call and kept."""
        try:
            return self._str
        except AttributeError:
            self._str = format_element(self)
            return self._str

    def __repr__(self) -> str:
        return f"Element({self})"


ZERO_ELEMENT = Element.from_rational(0)
ONE_ELEMENT = Element.from_rational(1)


def format_poly(p: Poly) -> str:
    """Terms leading first, each after its sign: a coefficient of magnitude 1
    prints only for the monomial 1, and constants precede generators."""
    if p.is_zero():
        return "0"
    out = []
    try:
        for mono, c in printed_terms(p, constants_first=True):
            mag = abs(c)
            body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
            out.append(f" - {body}" if c < 0 else f" + {body}")
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        k = max(max(abs(c.numerator), c.denominator) for c in p.terms.values())
        digits = int(log10(k)) + 1  # log10 is a float: correct it near a power of 10
        digits += (k >= 10**digits) - (k < 10 ** (digits - 1))
        limit = sys.get_int_max_str_digits()
        raise BudgetExceeded(
            f"a coefficient of {digits} digits passes the limit {limit} on printed integers"
        ) from None
    lead = out[0]  # " + x" prints as "x", " - x" as "-x"
    out[0] = lead[3:] if lead[1] == "+" else f"-{lead[3:]}"
    return "".join(out)


def format_element(x: Element) -> str:
    num_str = format_poly(x.num)
    if x.den == ONE:
        return num_str
    if len(x.num.terms) > 1:
        num_str = f"({num_str})"
    den_str = format_poly(x.den)
    # The denominator is monic: a single term with one variable, which
    # prints with no '*', reads as one grammar factor; anything else needs
    # parentheses.
    if len(x.den.terms) > 1 or "*" in den_str:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
