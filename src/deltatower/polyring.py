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
and trial ``exact_div``, with no gcd.  ``poly_gcd`` first certifies a
coprime pair from univariate images mod a prime (``_coprime_images``),
which can only prove the gcd 1; otherwise it splits the known factors
off both sides, and only the cofactors reach the general algorithm, the
recursive content/primitive-part gcd over Z with a pseudo-remainder
sequence in the top variable.  Every result is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from operator import lshift, mul, or_
from struct import unpack
from typing import Iterable

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
        shift = FIELD_BITS * _slot(v)
        return max(((m >> shift) & _FIELD for m in self.terms), default=0)

    def coeffs_in(self, v: Var) -> dict[int, "Poly"]:
        """Split into x^e -> coefficient polynomial, x = v."""
        shift = FIELD_BITS * _slot(v)
        out: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            out.setdefault(e, {})[m - (e << shift)] = c
        return {e: Poly(d, _trusted=True) for e, d in out.items()}

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        terms = printed_terms(self, constants_first=False)
        return "Poly(" + " + ".join(f"{c}*{mono}" if mono else f"{c}" for mono, c in terms) + ")"


ZERO = Poly()
ONE = Poly.const(1)


def exact_div(p: Poly, q: Poly) -> Poly | None:
    """p / q when the division is exact, else None.

    The remainder's monomials sit in a heap, so each step finds the
    leading term in O(log n) instead of rescanning the whole remainder.
    Each step removes the remainder's leading term and only adds smaller
    ones, so a monomial popped once never comes back; a heap entry whose
    term has cancelled meanwhile is skipped.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return ZERO
    if q.is_const():
        return p.scale(Fraction(1, q.const_value()))
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


def exact_quotient(p: Poly, q: Poly, what: str) -> Poly:
    """p / q where the maths makes the division exact; RuntimeError (not
    an assert, so it survives ``python -O``) names ``what`` otherwise."""
    res = exact_div(p, q)
    if res is None:
        raise RuntimeError(f"{what} does not divide exactly")
    return res


def cancel(p: Poly, q: Poly, what: str) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g) for g = gcd(p, q), which reduces residues only: level sums
    cancel by exponents and trial division.  Both divisions are skipped when
    g is constant (1 for coprime inputs); one the gcd makes exact but that
    leaves a remainder raises ``exact_quotient``'s RuntimeError, naming ``what``."""
    g = poly_gcd(p, q)
    if g.is_const():
        return g, p, q
    return g, exact_quotient(p, g, what), exact_quotient(q, g, what)


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
        r = r * lb - b * lr.mul_term((dr - db) << (FIELD_BITS * _slot(v)), 1)
    return r


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


def known_factors(p: Poly, keys=frozenset()) -> tuple[Monomial, Counter[LevelSum], Poly]:
    """(m, {s: k}, r) with p = m * prod_s level_sum(s)^k * r for a nonzero
    p: m is the monomial content, k the multiplicity of each level sum s,
    one of p / m (see _level_sums) or of ``keys``, and r the cofactor.
    Every factor split off is irreducible."""
    if p.is_const():
        return 0, Counter(), p
    m = _monomial_content(p.terms, next(iter(p.terms)))
    if m:
        p = Poly({t - m: c for t, c in p.terms.items()}, _trusted=True)
    sums: Counter[LevelSum] = Counter()
    return m, sums, _split_sums(p, _level_sums(p) | keys, sums)


def _split_sums(p: Poly, keys, sums: Counter[LevelSum]) -> Poly:
    """p with every power of level_sum(s), s in keys, divided out and
    counted in sums."""
    for s in sorted(keys):
        while (q := exact_div(p, level_sum(s))) is not None:
            p, sums[s] = q, sums[s] + 1
    return p


def product(*ps: Poly) -> Poly:
    """The product of ps; ``ONE`` itself when every factor is ``ONE``."""
    return reduce(mul, [p for p in ps if p is not ONE] or [ONE])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (1 for coprime inputs):
    the shared known factors times the general gcd of the cofactors."""
    if p.is_zero() and q.is_zero():
        return ZERO
    if p.is_zero():
        return _make_primitive(q)
    if q.is_zero():
        return _make_primitive(p)
    if p.is_const() or q.is_const() or _coprime_images(p, q):
        return ONE
    # a sum split off one side may divide the other's cofactor: each side
    # takes its own sums, q also p's, then p also q's
    pm, ps, p = known_factors(p)
    qm, qs, q = known_factors(q, ps.keys())
    p = _split_sums(p, qs.keys() - ps.keys(), ps)
    shared = [level_sum(s) ** min(k, qs[s]) for s, k in ps.items() if qs[s]]
    h = product(Poly({_m_min(pm, qm): 1}, _trusted=True), *shared)
    if p.is_const() or q.is_const():
        return h
    return _make_primitive(h * _prs_gcd(p, q))


# images mod a Mersenne prime; the degree cap bounds a dense image and its
# quadratic Euclid, and a higher degree falls through to the general gcd
_PRIME = (1 << 61) - 1
_MAX_IMAGE_DEGREE = 256
_MASK64 = (1 << 64) - 1


def _coprime_images(p: Poly, q: Poly) -> bool:
    """True only when gcd(p, q) = 1, shown by univariate images (Brown, J. ACM
    18(4), 1971).  For each shared variable v, every other variable is set to
    its slot's fixed point mod _PRIME.  A nonconstant gcd g has some shared v;
    when both images keep their degree in v, the leading coefficient of g in
    v survives too, so g's image of positive degree divides both images and
    their gcd is nonconstant.  So constant image gcds in every shared v prove
    coprimality; any other outcome proves nothing and returns False.  With
    one variable between p and q each image is its own input: no check."""
    slots_p, slots_q = (
        {s for s, e in enumerate(_fields(reduce(or_, x.terms, 0))) if e} for x in (p, q)
    )
    if len(slots_p | slots_q) < 2:
        return False
    shared = sorted(slots_p & slots_q)
    points = {s: _point(s) for s in slots_p | slots_q}
    images = [_images(x, shared, points) for x in (p, q)]
    return None not in images and all(map(_coprime_mod, *images))


def _point(s: int) -> int:
    """The fixed point of slot s mod _PRIME: the splitmix64 hash of s (Steele,
    Lea and Flood, OOPSLA 2014), so no small integer linear form in the
    points vanishes by construction, as it would for multiples of one number."""
    z = (s + 1) * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return (z ^ z >> 31) % _PRIME or 1


def _images(p: Poly, shared: list[int], points: dict[int, int]) -> list[list[int]] | None:
    """Per slot s of shared, p's image in (Z/_PRIME)[x_s], lowest degree
    first, with every other variable at its point; None when an image loses
    its degree in x_s, passes _MAX_IMAGE_DEGREE or a denominator is 0 mod _PRIME."""
    images: list[dict[int, int]] = [{} for _ in shared]
    for m, c in p.terms.items():
        if type(c) is not int:
            if not c.denominator % _PRIME:
                return None
            c = c.numerator * pow(c.denominator, -1, _PRIME)
        fields = _fields(m)
        for s, e in enumerate(fields):
            if e:
                c = c * pow(points[s], e, _PRIME) % _PRIME
        for image, s in zip(images, shared):
            e = fields[s] if s < len(fields) else 0
            image[e] = (image.get(e, 0) + c * pow(points[s], -e, _PRIME)) % _PRIME
    dense = []
    for image in images:
        top = max(image)
        if top > _MAX_IMAGE_DEGREE or not image[top]:
            return None
        dense.append([image.get(e, 0) for e in range(top + 1)])
    return dense


def _coprime_mod(a: list[int], b: list[int]) -> bool:
    """Whether gcd(a, b) is constant in (Z/_PRIME)[x], by Euclid on dense
    images, lowest degree first, each of positive degree."""
    while len(b) > 1:
        inv, a = pow(b[-1], -1, _PRIME), a[:]
        while len(a) >= len(b):
            f, off = a[-1] * inv % _PRIME, len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - f * c) % _PRIME
            a.pop()
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _prs_gcd(p: Poly, q: Poly) -> Poly:
    """The general gcd: recursive content/primitive part over Z with a
    primitive pseudo-remainder sequence in the top shared variable."""
    a = _make_primitive(p)
    b = _make_primitive(q)
    shared = a.variables() & b.variables()
    if not shared:
        # no common variable: any common divisor is a unit
        return ONE
    v = max(shared)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    # b's content first, of the lower degree in v: when it is 1, the sequence
    # ends at gcd(a, b) = gcd(pp(a), b), and a's, often the costlier, is skipped
    cont, pa, pb = ONE, a, b
    if not (cb := _content_wrt(b, v)).is_const():
        ca = _content_wrt(a, v)
        cont = poly_gcd(ca, cb)
        pa = exact_quotient(a, ca, "the content of the first gcd argument")
        pb = exact_quotient(b, cb, "the content of the second gcd argument")
    while True:
        r = _prem(pa, pb, v)
        if r.is_zero():
            g = _primitive_wrt(pb, v)
            break
        if r.degree_in(v) == 0:
            g = ONE
            break
        pa, pb = pb, _primitive_wrt(r, v)
    return cont * g


def _primitive_wrt(p: Poly, v: Var) -> Poly:
    c = _content_wrt(p, v)
    return _make_primitive(exact_quotient(p, c, f"the content in {var_name(v)}"))


def _make_primitive(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p.scale(1 / _int_content(p))
