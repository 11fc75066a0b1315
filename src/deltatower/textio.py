"""The element grammar: parsing element text into canonical form.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] int)?
    base   := int | 'c[' int '][' int ']' | 'b[' int '][' int ']'
            | 'u[' int '][' int ']' | '(' expr ')'

One regex pass lexes the text: ``b[i][j]`` with no space or leading zero
is one token, other symbol text is read bracket by bracket, and an
integer of more digits than ``sys.get_int_max_str_digits()`` is a
``ParseError``.  The grammar holds no arithmetic: a leaf is an
``Element`` (``Element.from_var`` or an integer constant), and each
operator applies ``Element``'s own ``+ - * / **``.  The caps below refuse
a power or a product before it is formed, from the terms and coefficient
bits of the operands' numerators and expanded denominators; a monomial
denominator is one term of coefficient 1, so it adds neither.  The lexer
refuses parentheses nested past ``MAX_NESTING`` before the parser recurses.

Printing (``str(element)``) always emits canonical form and round-trips
bit-exactly through :func:`parse_element`.
"""

from __future__ import annotations

import re
import sys
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

# cap on how deep parentheses nest, refused before the parser recurses: one
# level takes at most six parser frames (_parse_expr, _chain, _parse_term,
# _chain, _parse_factor and _parse_base, as in 1+1*( ... )), and a quarter of
# the recursion limit stays for the caller and the arithmetic at the deepest
# level; 125 at the default limit of 1000
MAX_NESTING = sys.getrecursionlimit() // 8

_OPS = {"+": add, "-": sub, "*": mul, "/": truediv}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym>([bcu])\[([1-9]\d*)\]\[([1-9]\d*)\])|(?P<int>\d+)|(?P<name>[bcu])"
    r"|(?P<op>[-+*/^()\[\]])|(?P<bad>\S))"
)


def _int(digits: str, pos: int) -> int:
    """The lexer's one integer conversion."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer of {len(digits)} digits passes the limit {limit}", pos) from None


class _Tokens:
    """(kind, text, position, value) per token, then ("end", "", len(text),
    None): an int's value is the int, a symbol's its variable and its text
    the letter, as a bracket-by-bracket read would show it."""

    def __init__(self, text: str):
        self.items: list[tuple[str, str, int, object]] = []
        depth = 0
        for m in _TOKEN_RE.finditer(text):
            kind = value = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start())
            if kind == "op" and m[kind] in "()":
                depth += 1 if m[kind] == "(" else -1
                if depth > MAX_NESTING:
                    raise ParseError(f"parentheses nest deeper than {MAX_NESTING}, the cap", m.start(kind))
            if kind == "sym":
                value = (m[2], _int(m[3], m.start(3)), _int(m[4], m.start(4)))
            elif kind == "int":
                value = _int(m[kind], m.start(kind))
            self.items.append((kind, m[2] if kind == "sym" else m[kind], m.start(kind), value))
        self.items.append(("end", "", len(text), None))
        self.i = 0

    def peek(self) -> tuple[str, str, int, object]:
        return self.items[self.i]

    def next(self) -> tuple[str, str, int, object]:
        tok = self.items[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def accept(self, value: str) -> bool:
        if self.items[self.i][1] == value:
            self.i += 1
            return True
        return False


# --- the parser ----------------------------------------------------------


def _parse_int(tokens: _Tokens) -> int:
    neg = tokens.accept("-")
    kind, value, pos, n = tokens.next()
    if kind != "int":
        raise ParseError(f"expected integer, found {value!r}", pos)
    return -n if neg else n


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
    kind, value, pos, payload = tokens.next()
    if kind == "int":
        return Element.from_rational(payload)
    if kind == "sym":
        return Element.from_var(payload)
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
    num, den = base.num, base.den
    # (t terms)^n has at most C(|n|+t-1, t-1) terms, one per multiset of |n| terms
    t = max(len(num.terms), len(den.terms))
    if comb(abs(n) + t - 1, t - 1) > MAX_POWER_TERMS:
        raise ParseError(f"power {n} of {t} terms may expand past {MAX_POWER_TERMS}, the cap")
    bits = abs(n) * max(
        0 if abs(k) == 1 else abs(k).bit_length()
        for p in (num, den)
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
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    if op == "/":
        yn, yd = yd, yn
    products = [(xn, yn), (xd, yd)]
    if op in "+-":  # a sum is formed over the product of the denominators at most
        products = [(xn, yd), (yn, xd), (xd, yd)]
    for p, q in products:
        s, t = len(p.terms), len(q.terms)
        if s > 1 and t > 1 and s * t > MAX_POWER_TERMS:
            raise ParseError(f"product of {s} and {t} terms may pass the cap {MAX_POWER_TERMS}")
    return _OPS[op](x, y)


def _chain(tokens: _Tokens, out: Element, operand, ops: tuple[str, str]) -> Element:
    """Fold ``out (op operand)*`` left to right, op one of ``ops``."""
    while (tok := tokens.peek())[1] in ops:
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
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return e
