"""Sparse multivariate polynomials over Q.

Variables are tuples ``(kind, level, index)`` with ``kind`` one of
``'b'`` (tower generators), ``'c'`` (eigenvalue constants) and ``'u'``
(adjoined scale constants).  Monomials are compared in graded
lexicographic order: total degree first, then exponents read off the
variables from most significant down, where variables are ordered by
their natural tuple order (so ``('c', i, j)`` beats every ``('b', ...)``).

The gcd is the recursive content/primitive-part algorithm over Z with a
pseudo-remainder sequence in the top variable; everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd as int_gcd
from typing import Iterable

Var = tuple[str, int, int]
# A monomial is a tuple of (var, exponent) pairs, sorted by var, exponents > 0.
Monomial = tuple[tuple[Var, int], ...]

ONE_MONOMIAL: Monomial = ()


def var_b(level: int, index: int) -> Var:
    return ("b", level, index)


def var_c(level: int, index: int) -> Var:
    return ("c", level, index)


def var_u(level: int, index: int) -> Var:
    return ("u", level, index)


def var_name(v: Var) -> str:
    kind, level, index = v
    return f"{kind}[{level}][{index}]"


def monomial(pairs: Iterable[tuple[Var, int]]) -> Monomial:
    """Build a monomial, merging duplicates and dropping zero exponents."""
    acc: dict[Var, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    for v, e in acc.items():
        if e < 0:
            raise ValueError(f"negative exponent on {var_name(v)}")
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


def m_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def m_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def m_divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 | m2 componentwise."""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def m_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2; requires m2 | m1."""
    acc = dict(m1)
    for v, e in m2:
        n = acc.get(v, 0) - e
        if n < 0:
            raise ValueError("monomial division is not exact")
        acc[v] = n
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


def m_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded lex: degree first, then most significant variable."""
    d1, d2 = m_degree(m1), m_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i, j = len(m1) - 1, len(m2) - 1
    while i >= 0 and j >= 0:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 != v2:
            return 1 if v1 > v2 else -1
        if e1 != e2:
            return 1 if e1 > e2 else -1
        i -= 1
        j -= 1
    if i >= 0:
        return 1
    if j >= 0:
        return -1
    return 0


MONOMIAL_KEY = cmp_to_key(m_cmp)


class Poly:
    """Polynomial with Fraction coefficients, canonical sparse form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None, *, _trusted: bool = False):
        if terms is None:
            self.terms: dict[Monomial, Fraction] = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls({ONE_MONOMIAL: c} if c else {}, _trusted=True)

    @classmethod
    def variable(cls, v: Var) -> "Poly":
        return cls({((v, 1),): Fraction(1)}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONOMIAL in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms[ONE_MONOMIAL]

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def lead(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=MONOMIAL_KEY)
        return m, self.terms[m]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __add__(self, other: "Poly") -> "Poly":
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = c
            else:
                s = s + c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Poly(res, _trusted=True)

    def __sub__(self, other: "Poly") -> "Poly":
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = -c
            else:
                s = s - c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Poly(res, _trusted=True)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        res: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m_mul(m1, m2)
                s = res.get(m)
                if s is None:
                    res[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        return Poly(res, _trusted=True)

    def mul_term(self, m: Monomial, c: Fraction) -> "Poly":
        if not c:
            return Poly()
        return Poly({m_mul(m0, m): c0 * c for m0, c0 in self.terms.items()}, _trusted=True)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly()
        return Poly({m: c0 * c for m, c0 in self.terms.items()}, _trusted=True)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # --- structure with respect to one variable -------------------------

    def degree_in(self, v: Var) -> int:
        d = 0
        for m in self.terms:
            for mv, e in m:
                if mv == v and e > d:
                    d = e
        return d

    def coeffs_in(self, v: Var) -> dict[int, "Poly"]:
        """Split into x^e -> coefficient polynomial, x = v."""
        out: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for mv, me in m:
                if mv == v:
                    e = me
                else:
                    rest.append((mv, me))
            out.setdefault(e, {})[tuple(rest)] = c
        return {e: Poly(d, _trusted=True) for e, d in out.items()}

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=MONOMIAL_KEY, reverse=True):
            c = self.terms[m]
            mono = "*".join(f"{var_name(v)}^{e}" if e > 1 else var_name(v) for v, e in m)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


ZERO = Poly()
ONE = Poly.const(1)


def exact_div(p: Poly, q: Poly) -> Poly | None:
    """p / q when the division is exact, else None."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return ZERO
    if q.is_const():
        return p.scale(Fraction(1) / q.const_value())
    qm, qc = q.lead()
    quotient: dict[Monomial, Fraction] = {}
    rest = p
    while rest.terms:
        rm, rc = rest.lead()
        if not m_divides(qm, rm):
            return None
        m = m_div(rm, qm)
        c = rc / qc
        quotient[m] = c
        rest = rest - q.mul_term(m, c)
    return Poly(quotient, _trusted=True)


# --- gcd: content / primitive part over Z --------------------------------


def _int_content(p: Poly) -> Fraction:
    """Positive rational c with p/c integral, primitive and lead-positive."""
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, abs(c.numerator))
        den = den * c.denominator // int_gcd(den, c.denominator)
    content = Fraction(num, den)
    if p.lead()[1] < 0:
        content = -content
    return content


def _content_wrt(p: Poly, v: Var) -> Poly:
    coeffs = p.coeffs_in(v)
    g = ZERO
    for c in coeffs.values():
        g = poly_gcd(g, c)
        if g.is_const() and not g.is_zero():
            break
    return g


def _prem(a: Poly, b: Poly, v: Var) -> Poly:
    """Pseudo-remainder of a by b with respect to v (b has positive degree)."""
    db = b.degree_in(v)
    bc = b.coeffs_in(v)
    lb = bc[db]
    r = a
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        rc = r.coeffs_in(v)
        lr = rc[dr]
        shift = ((v, dr - db),) if dr > db else ONE_MONOMIAL
        r = r * lb - b * lr.mul_term(shift, Fraction(1))
    return r


def _monomial_gcd(p: Poly, q: Poly) -> Poly:
    """gcd when q is a single term: the componentwise minimum exponent."""
    (qm, _), = q.terms.items()
    shared = dict(qm)
    for m in p.terms:
        exps = dict(m)
        for v in list(shared):
            e = min(shared[v], exps.get(v, 0))
            if e:
                shared[v] = e
            else:
                del shared[v]
        if not shared:
            break
    return Poly({tuple(sorted(shared.items())): Fraction(1)}, _trusted=True)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (1 for coprime inputs)."""
    if p.is_zero() and q.is_zero():
        return ZERO
    if p.is_zero():
        return _make_primitive(q)
    if q.is_zero():
        return _make_primitive(p)
    if p.is_const() or q.is_const():
        return ONE
    if len(q.terms) == 1:
        return _monomial_gcd(p, q)
    if len(p.terms) == 1:
        return _monomial_gcd(q, p)
    a = _make_primitive(p)
    b = _make_primitive(q)
    shared = a.variables() & b.variables()
    if not shared:
        # no common variable: any common divisor is a unit
        return ONE
    v = max(shared)
    ca, cb = _content_wrt(a, v), _content_wrt(b, v)
    cont = poly_gcd(ca, cb)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    assert pa is not None and pb is not None
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, v)
        if r.is_zero():
            g = _primitive_wrt(pb, v)
            break
        if r.degree_in(v) == 0:
            g = ONE
            break
        pa, pb = pb, _primitive_wrt(r, v)
    return _make_primitive(cont * g)


def _primitive_wrt(p: Poly, v: Var) -> Poly:
    c = _content_wrt(p, v)
    res = exact_div(p, c)
    assert res is not None
    return _make_primitive(res)


def _make_primitive(p: Poly) -> Poly:
    if p.is_zero():
        return p
    content = _int_content(p)
    return p.scale(Fraction(1) / content)
