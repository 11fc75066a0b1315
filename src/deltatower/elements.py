"""Exact rational expressions over the constant and generator symbols.

An :class:`Element` is a reduced fraction of two :class:`~deltatower.polyring.Poly`
values: numerator and denominator coprime, denominator monic in graded lex
order, zero canonically ``0/1``.  Equality, hashing and printing all go
through this canonical form, so two elements are equal exactly when their
printed forms coincide.  A constant denominator is always the shared
``polyring.ONE``: sums and products over it, and rational multiples and
quotients, run no gcd; every other fraction is reduced through
``polyring.cancel``.

Elements double as both roles in the public API: expressions in the
constant symbols only (``c[i][j]``, ``u[i][j]``) and full tower elements
involving the generators ``b[i][j]``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero
from .polyring import ONE, Poly, Var, cancel, printed_terms

_COERCIBLE = (int, Fraction)


class Element:
    """Canonical fraction num/den of multivariate polynomials over Q."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not num.is_zero() and not den.is_const():
            _, num, den = cancel(num, den, "the gcd of numerator and denominator")
        self._set_coprime(num, den)

    def _set_coprime(self, num: Poly, den: Poly) -> None:
        """Store coprime num/den, scaled so the denominator's leading
        coefficient is 1 (a constant denominator becomes 1)."""
        if num.is_zero():
            self.num, self.den = Poly(), ONE
            return
        lc = 1 if den is ONE else den.lead()[1]
        if lc != 1:
            inv = Fraction(1) / lc
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, ONE if den.is_const() else den

    @classmethod
    def _coprime(cls, num: Poly, den: Poly) -> "Element":
        out = cls.__new__(cls)
        out._set_coprime(num, den)
        return out

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, c) -> "Element":
        return cls(Poly.const(Fraction(c)))

    @classmethod
    def from_var(cls, v: Var) -> "Element":
        return cls(Poly.variable(v))

    # --- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_rational(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not a rational number")
        return self.num.const_value() if not self.num.is_zero() else Fraction(0)

    def is_constant(self) -> bool:
        """True when no generator symbol occurs (the derivation kills it)."""
        return not (self.num.has_generator() or self.den.has_generator())

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
        4.5.1): with g = gcd(d1, d2), the sum t = n1 d2/g +- n2 d1/g over
        the lcm g (d1/g) (d2/g) can share a factor only with g."""
        if self.den is o.den is ONE:
            return Element._coprime(self.num - o.num if negate else self.num + o.num, ONE)
        if self.den == o.den:
            g, rest = self.den, ONE
            t = self.num - o.num if negate else self.num + o.num
        else:
            g, mine, theirs = cancel(self.den, o.den, "the gcd of two denominators")
            a, b = self.num * theirs, o.num * mine
            t = a - b if negate else a + b
            rest = mine * theirs
        _, t, g = cancel(t, g, "the gcd of a sum and its denominator")
        return Element._coprime(t, g * rest)

    @staticmethod
    def _times(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> "Element":
        """(n1 n2) / (d1 d2) for coprime n1, d1 and coprime n2, d2 by
        Henrici's multiplication: only n1 with d2 and n2 with d1 can share
        factors, so those two gcds replace one of the whole products."""
        if d1 is d2 is ONE:
            return Element._coprime(n1 * n2, ONE)
        _, n1, d2 = cancel(n1, d2, "the gcd of a numerator and a denominator")
        _, n2, d1 = cancel(n2, d1, "the gcd of a numerator and a denominator")
        return Element._coprime(n1 * n2, d1 * d2)

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
        return Element._coprime(-self.num, self.den)

    def __mul__(self, other) -> "Element":
        if type(other) in _COERCIBLE:
            # a nonzero rational is a unit: num stays coprime to the monic den
            return Element._coprime(self.num.scale(other), self.den) if other else ZERO_ELEMENT
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element._times(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero element")
        if o.den is ONE and o.num.is_const():
            # a nonzero rational: multiply by its reciprocal, as __mul__ does
            return Element._coprime(self.num.scale(Fraction(1) / o.num.const_value()), self.den)
        return Element._times(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other) -> "Element":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "Element":
        """Powers of a coprime pair are coprime, so no gcd runs."""
        if not isinstance(n, int):
            return NotImplemented
        if n >= 0:
            return Element._coprime(self.num**n, self.den**n)
        if self.is_zero():
            raise DivisionByZero("negative power of zero")
        return Element._coprime(self.den**-n, self.num**-n)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        """hash((num, den)), computed on the first call: elements are immutable."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.num, self.den))
            return self._hash

    # --- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({format_element(self)})"


ZERO_ELEMENT = Element.from_rational(0)
ONE_ELEMENT = Element.from_rational(1)


def format_poly(p: Poly) -> str:
    """Terms leading first, each after its sign: a coefficient of magnitude 1
    prints only for the monomial 1, and constants precede generators."""
    if p.is_zero():
        return "0"
    out = []
    for mono, c in printed_terms(p, constants_first=True):
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
        out.append(f" - {body}" if c < 0 else f" + {body}")
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
