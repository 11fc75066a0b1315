"""Truncated power series over float64 in the variable t.

A series of order N keeps coefficients s_0..s_{N-1}.  Arithmetic between
series of different orders truncates to the shorter one; differentiation
drops the top coefficient.  These are the numerical counterparts of the
exact elements: the derivation becomes d/dt.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonInvertibleSeries


class Series:
    """Coefficient vector (s_0, ..., s_{N-1}) of a truncated power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("series needs a one-dimensional, nonempty coefficient vector")

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(np.zeros(order))

    @classmethod
    def const(cls, value: float, order: int) -> "Series":
        c = np.zeros(order)
        c[0] = value
        return cls(c)

    @classmethod
    def t(cls, order: int) -> "Series":
        c = np.zeros(order)
        if order > 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def truncate(self, order: int) -> "Series":
        if order >= len(self.coeffs):
            return self
        return Series(self.coeffs[:order])

    @staticmethod
    def _align(a: "Series", b: "Series") -> tuple[np.ndarray, np.ndarray]:
        n = min(len(a.coeffs), len(b.coeffs))
        return a.coeffs[:n], b.coeffs[:n]

    def __add__(self, other: "Series") -> "Series":
        a, b = self._align(self, other)
        return Series(a + b)

    def __sub__(self, other: "Series") -> "Series":
        a, b = self._align(self, other)
        return Series(a - b)

    def __neg__(self) -> "Series":
        return Series(-self.coeffs)

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            a, b = self._align(self, other)
            return Series(np.convolve(a, b)[: len(a)])
        return Series(self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return Series(self.coeffs / float(other))
        a, b = self._align(self, other)
        if b[0] == 0.0:
            raise NonInvertibleSeries("denominator has zero constant term")
        n = len(a)
        out = np.zeros(n)
        for k in range(n):
            acc = a[k]
            if k:
                acc -= float(np.dot(out[:k], b[k:0:-1]))
            out[k] = acc / b[0]
        return Series(out)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            return Series.const(1.0, self.order) / (self ** (-n))
        result = Series.const(1.0, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def deriv(self) -> "Series":
        """d/dt; the result has one coefficient fewer."""
        if len(self.coeffs) == 1:
            return Series.zero(1)
        k = np.arange(1, len(self.coeffs))
        return Series(self.coeffs[1:] * k)

    def integ(self) -> "Series":
        """Antiderivative with value 0 at t=0, truncated to the same order."""
        out = np.zeros(len(self.coeffs))
        k = np.arange(1, len(self.coeffs))
        out[1:] = self.coeffs[: len(self.coeffs) - 1] / k
        return Series(out)

    def exp(self) -> "Series":
        """exp of the series; works for any constant term."""
        n = len(self.coeffs)
        h = self.coeffs
        out = np.zeros(n)
        out[0] = math.exp(h[0])
        # (k+1) g_{k+1} = sum_{i=0..k} (i+1) h_{i+1} g_{k-i}
        weighted = h[1:] * np.arange(1, n) if n > 1 else np.zeros(0)
        for k in range(n - 1):
            acc = float(np.dot(weighted[: k + 1], out[k::-1]))
            out[k + 1] = acc / (k + 1)
        return Series(out)

    def __repr__(self) -> str:
        return f"Series({np.array2string(self.coeffs, precision=6, separator=', ')})"


def residual(a: Series, b: Series) -> float:
    """Scaled max-norm residual between two series.

    The difference is scaled by max(1, |a|, |b|) so the number means
    "relative disagreement" regardless of how fast the coefficients grow.
    A non-finite coefficient on either side gives ``inf``, so no check of
    the form ``residual < tol`` can pass on overflowed values.
    """
    n = min(len(a.coeffs), len(b.coeffs))
    x, y = a.coeffs[:n], b.coeffs[:n]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return math.inf
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale
