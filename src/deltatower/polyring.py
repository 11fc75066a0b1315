"""Sparse multivariate polynomials over Q.

Variables are tuples ``(kind, level, index)`` with ``kind`` one of
``'b'`` (tower generators), ``'c'`` (eigenvalue constants) and ``'u'``
(adjoined scale constants).  A coefficient is an ``int`` when integral
and a ``Fraction`` only where a denominator remains; the two compare,
hash and print alike.

A monomial is an ``int`` of packed exponents (Johnson 1974; Monagan and
Pearce, CASC 2007): each variable owns a ``FIELD_BITS``-wide field, at the
slot a process-wide registry gives it on first use, so multiplying adds
ints; the registry also keeps each slot's printed name and place in the
print order, so printing decodes a monomial once.  Exponents stay at most
``MAX_EXPONENT`` (2^31 - 1): a sum of two never carries into the next
field, and one that reaches 2^31 sets its field's top bit, which
``monomial``, products and division remainders test (an ``if``, so it
holds under ``python -O``), raising ``BudgetExceeded``.

Monomials are compared in graded lexicographic order: total degree
first, then exponents read off the variables from most significant down,
where variables are ordered by their natural tuple order (so
``('c', i, j)`` beats every ``('b', ...)``).  ``MONOMIAL_KEY`` alone
states it, as ``(degree, sum of e_v << shift(v))`` with the shifts
``FIELD_BITS * rank`` of the variables in sorted order that the registry
keeps per slot: one int compare decides, whatever the slot order.  A
registration can move shifts, so keys are compared only inside one
``max``, sort or ``exact_div`` call; none registers a variable, as
products and quotients only add fields that exist.

Element denominators carry their known factors, the monomial and the
level sums ``sum_j b[k][j]`` (each ``e_k`` is one), split off once by
``known_factors``; these are irreducible, so they cancel by exponents
and trial ``exact_div``, with no gcd.  ``cancel`` is Brown's modular
gcd: images mod a Mersenne prime, evaluated and interpolated one
variable at a time down to sparse univariate ones, are read back over Z,
and the result stands only when it divides both inputs exactly and the
cofactors' gcd mod the prime is constant; else the next prime is tried.
Every result is exact, and the cofactors it verified are handed back, so
no second division runs.  One univariate remainder sequence, or the
divisions of one content, may do at most ``MAX_EUCLID_WORK`` units of
work (exponents stepped times divisor terms); past it, ``BudgetExceeded``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, zip_longest
from math import gcd as int_gcd
from operator import lshift, mul, or_
from random import Random
from struct import unpack
from typing import Iterable, Iterator

from .errors import BudgetExceeded

Var = tuple[str, int, int]
Monomial = int
Pairs = tuple[tuple[Var, int], ...]
LevelSum = tuple[Var, ...]

ONE_MONOMIAL: Monomial = 0
FIELD_BITS = 32  # one unsigned C int per field, so a monomial decodes in one unpack
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1

# the slot registry (per slot: variable, key shift, printed name, place in
# the print order) and its masks
_SLOTS: dict[Var, int] = {}
_SLOT_VARS: list[Var] = []
_SHIFTS: list[int] = []
_NAMES: list[str] = []
_PRINT_RANKS: list[int] = []  # constants before generators, each kind by index
_HIGH = 0  # the top bit of every field
_GENERATORS = 0  # every field of a generator b[i][j]


def var_b(level: int, index: int) -> Var:
    return ("b", level, index)


def var_c(level: int, index: int) -> Var:
    return ("c", level, index)


def var_name(v: Var) -> str:
    kind, level, index = v
    return f"{kind}[{level}][{index}]"


def _slot(v: Var) -> int:
    global _HIGH, _GENERATORS
    s = _SLOTS.get(v)
    if s is None:
        s = _SLOTS[v] = len(_SLOT_VARS)
        _SLOT_VARS.append(v)
        _NAMES.append(var_name(v))
        rank = {u: r for r, u in enumerate(sorted(_SLOT_VARS))}
        _SHIFTS[:] = [FIELD_BITS * rank[u] for u in _SLOT_VARS]
        rank = {u: r for r, u in enumerate(sorted(_SLOT_VARS, key=lambda u: (u[0] == "b", u)))}
        _PRINT_RANKS[:] = [rank[u] for u in _SLOT_VARS]
        _HIGH |= 1 << (FIELD_BITS * s + FIELD_BITS - 1)
        if v[0] == "b":
            _GENERATORS |= _FIELD << (FIELD_BITS * s)
    return s


def _check(m: int) -> None:
    """BudgetExceeded when a field of m, an OR of monomials, passed MAX_EXPONENT."""
    if m & _HIGH:
        v = m_pairs(m & _HIGH)[0][0]
        raise BudgetExceeded(f"an exponent of {var_name(v)} passes {MAX_EXPONENT}, the limit")


def monomial(pairs: Iterable[tuple[Var, int]]) -> Monomial:
    """Build a monomial, merging duplicates and dropping zero exponents."""
    acc: dict[Var, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    m = 0
    for v, e in acc.items():
        if e < 0:
            raise ValueError(f"negative exponent on {var_name(v)}")
        if e > MAX_EXPONENT:
            raise BudgetExceeded(f"{var_name(v)}^{e} passes the exponent limit {MAX_EXPONENT}")
        m += e << (FIELD_BITS * _slot(v))
    return m


def _fields(m: Monomial) -> tuple[int, ...]:
    """The exponents of m by slot, up to its last nonzero one."""
    n = (m.bit_length() + FIELD_BITS - 1) // FIELD_BITS
    return unpack(f"<{n}I", m.to_bytes(4 * n, "little"))


def m_pairs(m: Monomial) -> Pairs:
    """The one decoder: m as (var, exponent) pairs sorted by var."""
    return tuple(sorted((_SLOT_VARS[s], e) for s, e in enumerate(_fields(m)) if e))


def printed_terms(p: "Poly", *, constants_first: bool) -> list[tuple[str, Fraction]]:
    """(monomial text, coefficient) per term of p, leading first.  One decode
    of each monomial gives both its MONOMIAL_KEY and its factors, name or
    name^e joined by '*', in variable order or with the constants first."""
    ranks = _PRINT_RANKS if constants_first else _SHIFTS
    rows = []
    for m, c in p.terms.items():
        fields = _fields(m)
        slots = [s for s, e in enumerate(fields) if e]
        if len(slots) > 1:
            slots.sort(key=ranks.__getitem__)
        text = "*".join([f"{_NAMES[s]}^{fields[s]}" if fields[s] > 1 else _NAMES[s] for s in slots])
        rows.append((sum(fields), sum(map(lshift, fields, _SHIFTS)), text, c))
    rows.sort(reverse=True)
    return [(text, c) for _, _, text, c in rows]


def m_divides(m1: Monomial, m2: Monomial) -> bool:
    """m1 | m2: (m2_f + 2^31) - m1_f keeps field f's top bit iff m2_f >= m1_f."""
    return ((m2 | _HIGH) - m1) & _HIGH == _HIGH


def _m_min(a: Monomial, b: Monomial) -> Monomial:
    """The componentwise minimum: take b's field wherever a_f >= b_f."""
    ge = ((a | _HIGH) - b) & _HIGH
    take_b = (ge >> (FIELD_BITS - 1)) * _FIELD
    return (b & take_b) | (a & ~take_b)


def MONOMIAL_KEY(m: Monomial) -> tuple[int, int]:
    """Sort key of the graded lex order: (total degree, the fields repacked
    in variable order), valid within one registry state."""
    fields = _fields(m)
    return sum(fields), sum(map(lshift, fields, _SHIFTS))


def _normal(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:  # a Fraction is already in lowest terms
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Polynomial over Q in canonical sparse form: monomial -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None, *, _trusted: bool = False):
        if terms is None:
            self.terms: dict[Monomial, Fraction] = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {m: _normal(c) for m, c in terms.items() if c != 0}

    @classmethod
    def const(cls, c) -> "Poly":
        c = _normal(c)
        return cls({ONE_MONOMIAL: c} if c else {}, _trusted=True)

    @classmethod
    def variable(cls, v: Var) -> "Poly":
        return cls({1 << (FIELD_BITS * _slot(v)): 1}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONOMIAL in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return 0
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms[ONE_MONOMIAL]

    def variables(self) -> set[Var]:
        return {v for v, _ in m_pairs(reduce(or_, self.terms, 0))}

    def has_generator(self) -> bool:
        """Whether some b[i][j] occurs: one mask test of the OR of the monomials."""
        return reduce(or_, self.terms, 0) & _GENERATORS != 0

    def lead(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=MONOMIAL_KEY) if len(self.terms) > 1 else next(iter(self.terms))
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

    def _merge(self, other: "Poly", negate: bool) -> "Poly":
        """self + other, or self - other when negate: other's terms merged
        into a copy of self's, in order, dropping each sum that cancels."""
        res = dict(self.terms)
        for m, c in other.terms.items():
            if negate:
                c = -c
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

    def __add__(self, other: "Poly") -> "Poly":
        return self._merge(other, False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._merge(other, True)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        res: dict[Monomial, Fraction] = {}
        get = res.get
        inner = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in inner:
                m = m1 + m2
                s = get(m)
                if s is None:
                    res[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        _check(reduce(or_, res, 0))
        return Poly(res, _trusted=True)

    def mul_term(self, m: Monomial, c: Fraction) -> "Poly":
        if not c:
            return Poly()
        res = {m0 + m: c0 * c for m0, c0 in self.terms.items()}
        _check(reduce(or_, res, 0))
        return Poly(res, _trusted=True)

    def scale(self, c) -> "Poly":
        c = _normal(c)
        if not c:
            return Poly()
        return Poly({m: _normal(c0 * c) for m, c0 in self.terms.items()}, _trusted=True)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, Poly.const(1))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        terms = printed_terms(self, constants_first=False)
        return "Poly(" + " + ".join(f"{c}*{mono}" if mono else f"{c}" for mono, c in terms) + ")"


ZERO = Poly()
ONE = Poly.const(1)


def power(base, n: int, one):
    """base^n for n >= 0 by square and multiply from one, for Poly and Series."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def exact_div(p: Poly, q: Poly) -> Poly | None:
    """p / q when the division is exact, else None.

    The remainder's monomials sit in a heap, so each step finds the leading
    term in O(log n) instead of rescanning the whole remainder.  Each step
    removes the remainder's leading term and only adds smaller ones, so a
    monomial popped once never comes back; a heap entry whose term has
    cancelled meanwhile is skipped.  Every divisor takes this one loop.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    qm, qc = q.lead()
    q_tail = [(m, c) for m, c in q.terms.items() if m != qm]
    rest = dict(p.terms)

    def entry(m: Monomial) -> tuple[int, int, Monomial]:  # the leading term pops first
        d, k = MONOMIAL_KEY(m)
        return -d, -k, m

    heap = [entry(m) for m in rest]
    heapify(heap)
    quotient: dict[Monomial, Fraction] = {}
    while heap:
        rm = heappop(heap)[-1]
        rc = rest.pop(rm, None)
        if rc is None:
            continue
        if not m_divides(qm, rm):
            return None
        m = rm - qm
        c = _normal(rc if qc == 1 else Fraction(rc, qc))  # int / int is a float
        quotient[m] = c
        for tm, tc in q_tail:
            nm = tm + m
            s = rest.get(nm)
            if s is None:
                _check(nm)
                rest[nm] = -c * tc
                heappush(heap, entry(nm))
            else:
                s = s - c * tc
                if s:
                    rest[nm] = s
                else:
                    del rest[nm]
    return Poly(quotient, _trusted=True)


# --- integer content, known factors --------------------------------------


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


def _make_primitive(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p.scale(1 / _int_content(p))


def _monomial_content(ms: Iterable[Monomial], bound: Monomial) -> Monomial:
    """The componentwise minimum exponent over bound and every monomial in ms."""
    shared = bound
    for m in ms:
        if not shared:
            break
        shared = _m_min(shared, m)
    return shared


def cancel_monomial(p: Poly, m: Monomial) -> tuple[Poly, Monomial]:
    """(p / g, m / g) for g the monomial content p shares with the monomial m."""
    shared = _monomial_content(p.terms, m)
    if shared:
        p = Poly({t - shared: c for t, c in p.terms.items()}, _trusted=True)
    return p, m - shared


def _level_sums(p: Poly) -> set[LevelSum]:
    """Per level k, the sum of the b[k][j] occurring in p, as its tuple of
    variables (two or more).  Each is linear, hence irreducible, and it is
    e_k whenever e_k divides p, since a factor's variables all occur in p."""
    by_level: dict[int, set[Var]] = {}
    for v in p.variables():
        if v[0] == "b":
            by_level.setdefault(v[1], set()).add(v)
    return {tuple(sorted(vs)) for vs in by_level.values() if len(vs) > 1}


@cache
def level_sum(s: LevelSum) -> Poly:
    """The sum of the variables of s, built once per s."""
    return Poly({monomial(((v, 1),)): 1 for v in s}, _trusted=True)


def known_factors(p: Poly) -> tuple[Monomial, Counter[LevelSum], Poly]:
    """(m, {s: k}, r) with p = m * prod_s level_sum(s)^k * r for a nonzero
    p: m is the monomial content, k the multiplicity of each level sum s of
    p / m (see _level_sums), and r the cofactor.  Every factor split off is
    irreducible."""
    if p.is_const():
        return 0, Counter(), p
    m = _monomial_content(p.terms, next(iter(p.terms)))
    if m:
        p = Poly({t - m: c for t, c in p.terms.items()}, _trusted=True)
    sums: Counter[LevelSum] = Counter()
    for s in sorted(_level_sums(p)):
        while (q := exact_div(p, level_sum(s))) is not None:
            p, sums[s] = q, sums[s] + 1
    return m, sums, p


def product(*ps: Poly) -> Poly:
    """The product of ps; ``ONE`` itself when every factor is ``ONE``."""
    return reduce(mul, [p for p in ps if p is not ONE] or [ONE])


# --- gcd: Brown's modular algorithm ---------------------------------------


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (1 for coprime inputs)."""
    return cancel(p, q)[0]


def cancel(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g) for g = gcd(p, q), primitive with positive leading
    coefficient (1 for coprime inputs), by Brown's modular algorithm (J. ACM
    18(4), 1971), leading terms taken in the lex order of the packed ints.
    It reduces residues only: level sums cancel by exponents and trial
    division.  With a, b the primitive parts of p, q over Z and gamma =
    gcd(lc(a), lc(b)), gamma times the monic gcd mod a prime, read in the
    symmetric range, is accepted if it divides a and b exactly and the
    cofactors have a constant gcd mod the prime; those cofactors, times the
    contents of p and q, are p/g and q/g.  The prime does not divide gamma,
    so a common factor of positive degree keeps its leading term there: a
    constant gcd mod the prime proves the cofactors, or a and b, coprime.
    Any other outcome tries the next prime, so every result is exact."""
    if p.is_zero() or q.is_zero():
        g = _make_primitive(q if p.is_zero() else p)
        return (g, p, q) if g.is_const() else (g, exact_div(p, g), exact_div(q, g))
    if p.is_const() or q.is_const():
        return ONE, p, q
    content_p, content_q = _int_content(p), _int_content(q)
    a, b = p.scale(1 / content_p), q.scale(1 / content_q)
    gamma = int_gcd(a.terms[max(a.terms)], b.terms[max(b.terms)])
    # variables by degree: the last is evaluated first, the first is the main one
    degrees = list(map(max, zip_longest(*map(_fields, chain(a.terms, b.terms)), fillvalue=0)))
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    for prime in _PRIMES:
        if not gamma % prime:
            continue
        image = _gcd_mod(_image(a, prime), _image(b, prime), order, prime)
        if image == _UNIT:
            return ONE, p, q
        lifted = {m: c - prime if 2 * c > prime else c for m, c in _scaled(image, gamma, prime).items()}
        g = _make_primitive(Poly(lifted, _trusted=True))
        ca, cb = exact_div(a, g), exact_div(b, g)
        if ca is not None and cb is not None:
            if _gcd_mod(_image(ca, prime), _image(cb, prime), order, prime) == _UNIT:
                return g, ca.scale(content_p), cb.scale(content_q)
    raise BudgetExceeded(f"no Mersenne prime of up to {_PRIMES[-1].bit_length()} bits certifies a gcd")


# Mersenne primes, tried in turn; the last bounds the gcd's coefficients
_PRIMES = tuple((1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                                        4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497))
# a polynomial mod a prime: residues by packed monomial, or by exponent when
# univariate, sparse either way, so x^3000 - 2 keeps two terms
Residues = dict[int, int]
_UNIT: Residues = {ONE_MONOMIAL: 1}


def _image(p: Poly, prime: int) -> Residues:
    return {m: r for m, c in p.terms.items() if (r := c % prime)}


def _gcd_mod(a: Residues, b: Residues, order: list[int], prime: int) -> Residues:
    """The monic gcd of nonzero a and b mod prime, by Brown's recursion on
    the slots of order that occur.  With one, it is Euclid's gcd.  Else the
    contents in v, the last, are divided out, and v is evaluated at its
    seeded points, skipping each where gamma, the gcd of the leading
    coefficients in the other variables, vanishes.  There each image's gcd
    is a multiple of the image of the primitive gcd, which keeps its
    leading term: so a constant image leaves the gcd of the contents, one
    of lower degree restarts, one of higher degree is skipped.  The images,
    led by gamma, are interpolated until one more point leaves the
    interpolant unchanged; its primitive part times the contents' gcd is
    the gcd."""
    present = reduce(or_, a) | reduce(or_, b)
    slots = [s for s in order if present >> FIELD_BITS * s & _FIELD]
    if not slots:
        return _UNIT
    shift = FIELD_BITS * slots[-1]
    if len(slots) == 1:
        g = _euclid({m >> shift: c for m, c in a.items()}, {m >> shift: c for m, c in b.items()}, prime)
        return {e << shift: c for e, c in g.items()}
    (cont_a, a), (cont_b, b) = _primitive(_split(a, shift), prime), _primitive(_split(b, shift), prime)
    cont, gamma = _euclid(cont_a, cont_b, prime), _euclid(a[max(a)], b[max(b)], prime)
    h: dict[Monomial, Residues] = {}
    newton, top = _UNIT, None  # the product of (v - x) over the points used
    for x in _points(slots[-1], prime):
        gamma_x, newton_x = _at(gamma, x, prime), _at(newton, x, prime)
        if not (gamma_x and newton_x):
            continue
        images = ({m: r for m, u in p.items() if (r := _at(u, x, prime))} for p in (a, b))
        image = _gcd_mod(*images, order, prime)
        lead = max(image)
        if lead == ONE_MONOMIAL:
            return {e << shift: c for e, c in cont.items()}
        if top is None or lead < top:
            h, newton, newton_x, top = {}, _UNIT, 1, lead
        elif lead != top:
            continue
        step, changed = pow(newton_x, -1, prime), False
        for m in image.keys() | h.keys():
            u = h.get(m, {})
            if d := (gamma_x * image.get(m, 0) - _at(u, x, prime)) * step % prime:
                h[m], changed = _plus(u, _scaled(newton, d, prime), prime), True
        if not changed:
            break
        newton = _times(newton, {1: 1, 0: prime - x}, prime)
    h = _primitive(h, prime)[1]
    g = {m + (e << shift): c for m, u in h.items() for e, c in _times(u, cont, prime).items()}
    return _scaled(g, pow(g[max(g)], -1, prime), prime)


def _points(slot: int, prime: int) -> Iterator[int]:
    """The evaluation points of slot's variable mod prime, seeded by the slot."""
    draw = Random(slot)
    while True:
        yield draw.randrange(1, prime)


def _split(p: Residues, shift: int) -> dict[Monomial, Residues]:
    """p with coefficients in the variable at shift: {monomial in the others:
    {exponent: residue}}."""
    out: dict[Monomial, Residues] = {}
    for m, c in p.items():
        e = (m >> shift) & _FIELD
        out.setdefault(m - (e << shift), {})[e] = c
    return out


def _primitive(p: dict[Monomial, Residues], prime: int) -> tuple[Residues, dict[Monomial, Residues]]:
    """(c, p / c) for c the monic gcd of p's coefficients."""
    c: Residues = {}
    for u in p.values():
        c = _euclid(c, u, prime)
        if c == _UNIT:
            return c, p
    work, quotients = 0, {}
    for m, u in p.items():
        quotients[m], _, work = _divmod(u, c, prime, work)
    return c, quotients


# --- univariate residues --------------------------------------------------

# the work of one remainder sequence, or of the divisions by one content: per
# division, exponents stepped (at least its quotient terms) times divisor terms
MAX_EUCLID_WORK = 1 << 22


def _at(u: Residues, x: int, prime: int) -> int:
    return sum(c * pow(x, e, prime) for e, c in u.items()) % prime


def _scaled(u: Residues, c: int, prime: int) -> Residues:
    return {e: r * c % prime for e, r in u.items()}


def _plus(u: Residues, w: Residues, prime: int) -> Residues:
    out = dict(u)
    for e, c in w.items():
        out[e] = (out.get(e, 0) + c) % prime
    return {e: c for e, c in out.items() if c}


def _times(u: Residues, w: Residues, prime: int) -> Residues:
    out: Residues = {}
    for e1, c1 in u.items():
        for e2, c2 in w.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % prime
    return {e: c for e, c in out.items() if c}


def _divmod(a: Residues, b: Residues, prime: int, work: int) -> tuple[Residues, Residues, int]:
    """(quotient, remainder, work) of a by a nonzero b, stepping down a's
    exponents, so that no step scans the remainder for its leading term.
    This division's work is added before it runs; past MAX_EUCLID_WORK,
    BudgetExceeded."""
    db = max(b)
    top = max(a, default=db - 1)
    work += max(top - db + 1, 0) * len(b)
    if work > MAX_EUCLID_WORK:
        raise BudgetExceeded(f"a univariate gcd passes {MAX_EUCLID_WORK} units of work, the cap")
    inv = pow(b[db], -1, prime)
    tail = [(e - db, c) for e, c in b.items() if e != db]
    r, quotient = dict(a), {}
    for e in range(top, db - 1, -1):
        if c := r.pop(e, 0) * inv % prime:
            quotient[e - db] = c
            for offset, t in tail:
                if s := (r.get(e + offset, 0) - c * t) % prime:
                    r[e + offset] = s
                else:
                    del r[e + offset]
    return quotient, r, work


def _euclid(a: Residues, b: Residues, prime: int) -> Residues:
    """The monic gcd of a and b, not both zero, by one remainder sequence."""
    work = 0
    while b:
        _, r, work = _divmod(a, b, prime, work)
        a, b = b, r
    return _scaled(a, pow(a[max(a)], -1, prime), prime)
