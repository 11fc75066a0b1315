"""The exact field of formal constants Q(c[1][1], ..., c[l][n_l]).

Eigenvalues are formal indeterminates rather than concrete algebraic
numbers: they are algebraically independent, hence in particular
Q-linearly independent, and all arithmetic stays exact inside the
rational-function field.  ``u[i][j]`` symbols are extra constants used
to scale eigencomponents.

A :class:`ConstExpr` is an :class:`~deltatower.elements.Element` whose
variables are all constant symbols; the same class also carries full
tower elements, so constants embed in the bigger field for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .elements import Element, ONE_ELEMENT, ZERO_ELEMENT
from .errors import DivisionByZero, LengthMismatch, NotLinear
from .polyring import Var, m_pairs, var_c, var_name, var_u

# Exact scalars are plain standard-library Fractions.
Rational = Fraction

# Alias used throughout the public API; constant-ness is a property of the
# value (no generator symbols), not a separate type.
ConstExpr = Element


@dataclass(frozen=True, order=True)
class ConstSymbol:
    """The formal constant c[level][index]."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 1 or self.index < 1:
            raise ValueError("symbol indices must be >= 1")

    @property
    def var(self) -> Var:
        return var_c(self.level, self.index)

    @property
    def name(self) -> str:
        return var_name(self.var)

    def expr(self) -> ConstExpr:
        return Element.from_var(self.var)

    def __str__(self) -> str:
        return self.name


def scale_symbol(level: int, index: int) -> ConstExpr:
    """The adjoined constant u[level][index]."""
    if level < 1 or index < 1:
        raise ValueError("symbol indices must be >= 1")
    return Element.from_var(var_u(level, index))


def arith(a: ConstExpr, b: ConstExpr, op: str) -> ConstExpr:
    """Field arithmetic dispatch; ``op`` is one of add/sub/mul/div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b.is_zero():
            raise DivisionByZero("arith: division by zero")
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def qlinear_dot(r: Sequence[int], symbols: Sequence[ConstSymbol | ConstExpr]) -> ConstExpr:
    """The Q-linear functional sum(r_j * c_j)."""
    if len(r) != len(symbols):
        raise LengthMismatch(f"{len(r)} coefficients for {len(symbols)} symbols")
    out = ZERO_ELEMENT
    for coeff, sym in zip(r, symbols):
        term = sym.expr() if isinstance(sym, ConstSymbol) else sym
        out = out + term * Fraction(coeff)
    return out


def linear_coefficients(x: ConstExpr) -> tuple[Fraction, dict[Var, Fraction]]:
    """Split a degree-<=1 expression into constant term and symbol coefficients.

    Raises NotLinear on any monomial of total degree >= 2 or a non-trivial
    denominator.
    """
    if not x.den.is_const():
        raise NotLinear(f"not a Q-linear combination: {x}")
    const = Fraction(0)
    coeffs: dict[Var, Fraction] = {}
    for m, c in x.num.terms.items():
        pairs = m_pairs(m)
        if len(pairs) == 0:
            const = c
        elif len(pairs) == 1 and pairs[0][1] == 1:
            coeffs[pairs[0][0]] = c
        else:
            raise NotLinear(f"monomial of degree >= 2 in {x}")
    return const, coeffs


def qlinear_independent(exprs: Iterable[ConstExpr]) -> bool:
    """Exact full-row-rank test for Q-linear expressions in the symbols.

    Constant terms take part through an extra coordinate, so e.g.
    ``[1, c[1][1]]`` is independent while ``[c[1][1], 2*c[1][1]]`` is not.
    """
    rows = []
    columns: list[Var | None] = [None]  # None marks the constant coordinate
    for x in exprs:
        const, coeffs = linear_coefficients(x)
        for v in coeffs:
            if v not in columns:
                columns.append(v)
        rows.append((const, coeffs))
    matrix = [
        [const] + [coeffs.get(v, Fraction(0)) for v in columns[1:]]
        for const, coeffs in rows
    ]
    return _row_rank(matrix) == len(matrix)


def _row_rank(matrix: list[list[Fraction]]) -> int:
    """Exact Gaussian elimination over Q."""
    if not matrix:
        return 0
    rows = [row[:] for row in matrix]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


__all__ = [
    "Rational",
    "ConstExpr",
    "ConstSymbol",
    "ONE_ELEMENT",
    "ZERO_ELEMENT",
    "arith",
    "linear_coefficients",
    "qlinear_dot",
    "qlinear_independent",
    "scale_symbol",
]
