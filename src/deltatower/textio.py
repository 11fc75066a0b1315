"""The element grammar: parsing element text into canonical form.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] int)?
    base   := int | 'c[' int '][' int ']' | 'b[' int '][' int ']'
            | 'u[' int '][' int ']' | '(' expr ')'

Printing (``str(element)``) always emits canonical form and round-trips
bit-exactly through :func:`parse_element`.
"""

from __future__ import annotations

import re
from math import comb
from operator import add, mul, sub, truediv

from .elements import Element
from .errors import ParseError

# cap on the terms a power or a product in element text may expand to; the
# slowest accepted powers, such as 1/(b[1][1]+b[1][2])^255, take seconds
MAX_POWER_TERMS = 256

# cap on |n| times the bit length of the largest coefficient numerator or
# denominator of a power's base (1 counts 0): 2^20000 passes, 3^40000 not
MAX_POWER_BITS = 1 << 16

_OPS = {"+": add, "-": sub, "*": mul, "/": truediv}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[bcu])|(?P<op>[-+*/^()\[\]]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.lastgroup is None:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
                break
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.i += 1
            return True
        return False


def _parse_int(tokens: _Tokens) -> int:
    neg = tokens.accept("-")
    kind, value, pos = tokens.next()
    if kind != "int":
        raise ParseError(f"expected integer, found {value!r}", pos)
    return -int(value) if neg else int(value)


def _parse_indexed(tokens: _Tokens, kind_letter: str, pos: int) -> Element:
    tokens.expect("[")
    level = _parse_int(tokens)
    tokens.expect("]")
    tokens.expect("[")
    index = _parse_int(tokens)
    tokens.expect("]")
    if level < 1 or index < 1:
        raise ParseError(f"symbol indices must be >= 1: {kind_letter}[{level}][{index}]", pos)
    return Element.from_var((kind_letter, level, index))


def _parse_base(tokens: _Tokens) -> Element:
    kind, value, pos = tokens.next()
    if kind == "int":
        return Element.from_rational(int(value))
    if kind == "name":
        return _parse_indexed(tokens, value, pos)
    if value == "(":
        e = _parse_expr(tokens)
        tokens.expect(")")
        return e
    raise ParseError(f"unexpected token {value!r}", pos)


def _parse_factor(tokens: _Tokens) -> Element:
    base = _parse_base(tokens)
    if not tokens.accept("^"):
        return base
    n = _parse_int(tokens)
    # (t terms)^n has at most C(|n|+t-1, t-1) terms, one per multiset of |n| terms
    t = max(len(base.num.terms), len(base.den.terms))
    if comb(abs(n) + t - 1, t - 1) > MAX_POWER_TERMS:
        raise ParseError(f"power {n} of {t} terms may expand past {MAX_POWER_TERMS}, the cap")
    bits = abs(n) * max(
        0 if abs(k) == 1 else abs(k).bit_length()
        for p in (base.num, base.den)
        for c in p.terms.values()
        for k in (c.numerator, c.denominator)
    )
    if bits > MAX_POWER_BITS:
        raise ParseError(f"power {n} may need {bits} bits, past the cap {MAX_POWER_BITS}")
    return base**n


def _combine(op: str, x: Element, y: Element) -> Element:
    """x op y, refused when a polynomial product it forms may have more than
    MAX_POWER_TERMS terms.  A single-term side adds no terms, so printed
    canonical forms, such as (num)/(den), always pass."""
    yn, yd = (y.den, y.num) if op == "/" else (y.num, y.den)
    products = [(x.num, yn), (x.den, yd)]
    if op in "+-":  # a sum is formed over the product of the denominators at most
        products = [(x.num, yd), (yn, x.den), (x.den, yd)]
    for p, q in products:
        s, t = len(p.terms), len(q.terms)
        if s > 1 and t > 1 and s * t > MAX_POWER_TERMS:
            raise ParseError(f"product of {s} and {t} terms may pass the cap {MAX_POWER_TERMS}")
    return _OPS[op](x, y)


def _chain(tokens: _Tokens, out: Element, operand, ops: tuple[str, str]) -> Element:
    """Fold ``out (op operand)*`` left to right, op one of ``ops``."""
    while (tok := tokens.peek()) is not None and tok[1] in ops:
        tokens.next()
        out = _combine(tok[1], out, operand(tokens))
    return out


def _parse_term(tokens: _Tokens) -> Element:
    return _chain(tokens, _parse_factor(tokens), _parse_factor, ("*", "/"))


def _parse_expr(tokens: _Tokens) -> Element:
    first = -_parse_term(tokens) if tokens.accept("-") else _parse_term(tokens)
    return _chain(tokens, first, _parse_term, ("+", "-"))


def parse_element(text: str) -> Element:
    """Parse element text into canonical form."""
    tokens = _Tokens(text)
    e = _parse_expr(tokens)
    tok = tokens.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return e
