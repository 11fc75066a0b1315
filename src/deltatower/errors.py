"""Exception types raised across the package.

Every domain error has its own class so callers can catch precisely;
all inherit from DeltaTowerError.
"""


class DeltaTowerError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(DeltaTowerError, ZeroDivisionError):
    """Exact division by the zero element."""


class LengthMismatch(DeltaTowerError, ValueError):
    """Paired sequences of different lengths."""


class NotLinear(DeltaTowerError, ValueError):
    """Expression has a monomial of total degree >= 2 where a Q-linear
    combination of constant symbols was required."""


class LogOfZero(DeltaTowerError, ZeroDivisionError):
    """Logarithmic derivative of the zero element."""


class DomainViolation(DeltaTowerError, ValueError):
    """Iterated logarithmic derivative left its domain of definition.

    ``index`` is the first i with the i-th iterate equal to zero.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"iterate {index} is zero")


class NonInvertibleSeries(DeltaTowerError, ZeroDivisionError):
    """Series division by a series with zero constant term."""


class ZeroInitialValue(DeltaTowerError, ValueError):
    """A series solver was given a zero initial value."""


class LevelOutOfRange(DeltaTowerError, IndexError):
    """Tower level outside 1..ell."""


class UnknownSymbol(DeltaTowerError, LookupError):
    """A symbol with no series or numeric value in the tower being evaluated."""


class NotNormalForm(DeltaTowerError, ValueError):
    """Element is not a constant-linear combination of the expected
    generators."""


class SupportTooSmall(DeltaTowerError, ValueError):
    """Relation support has fewer than two terms; nothing to reduce."""


class TruncationTooShort(DeltaTowerError, ValueError):
    """Series truncation order too small for the requested rank check."""


class NotMonotone(DeltaTowerError, ValueError):
    """Integer sequence is not monotone in the required direction."""


class BudgetExceeded(DeltaTowerError, ValueError):
    """Requested instance exceeds the configured exhaustiveness budget."""


class ParseError(DeltaTowerError, ValueError):
    """Malformed element text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Record:
    """Base of the package's records (plain classes, so no module imports
    ``dataclasses``): the fields are the ``__slots__``, which ``__init__``
    fills by position or by name; a missing trailing field takes its value
    from the class's ``_defaults``, and a missing, unknown or repeated field
    is a TypeError.  Records of one class are equal, and hash alike, when
    their ``_compared`` fields are; assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        slots = self.__slots__
        if len(values) > len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields, not {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)
        for name in slots[len(values):]:
            if name in named:
                value = named.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing the field {name!r}")
            object.__setattr__(self, name, value)
        for name in named:
            kind = "repeated" if name in slots else "unknown"
            raise TypeError(f"{type(self).__name__} got the {kind} field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle: state is (None, {field: value})
        Record.__init__(self, *[state[1][name] for name in self.__slots__])

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({shown})"
