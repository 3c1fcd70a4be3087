"""Values of valuations: elements of (1/2)Z together with infinity.

Base valuations only ever produce integers; extensions to quadratic covers
may produce half-integers.  Infinity is reserved for the zero element.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConicvalError


class Value:
    """An element of (1/2)Z or the symbol infinity, ordered the usual way."""

    __slots__ = ("_f",)

    def __init__(self, f: Fraction | int | None):
        if f is not None:
            f = Fraction(f)
            if f.denominator not in (1, 2):
                raise ConicvalError(f"value {f} outside (1/2)Z")
        self._f = f

    @property
    def is_infinite(self) -> bool:
        return self._f is None

    @property
    def fraction(self) -> Fraction:
        if self._f is None:
            raise ConicvalError("infinite value has no finite part")
        return self._f

    def is_integral(self) -> bool:
        return self._f is not None and self._f.denominator == 1

    def is_odd_integer(self) -> bool:
        return self.is_integral() and self._f.numerator % 2 == 1

    def half(self) -> "Value":
        if self._f is None:
            return INFINITY
        return Value(self._f / 2)

    def __add__(self, other):
        other = _coerce(other)
        if self._f is None or other._f is None:
            return INFINITY
        return Value(self._f + other._f)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other._f is None:
            raise ConicvalError("cannot subtract an infinite value")
        if self._f is None:
            return INFINITY
        return Value(self._f - other._f)

    def __neg__(self):
        if self._f is None:
            raise ConicvalError("cannot negate an infinite value")
        return Value(-self._f)

    def __mul__(self, n: int):
        if self._f is None:
            return INFINITY
        return Value(self._f * n)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (Value, int, Fraction)):
            return NotImplemented
        return self._f == _coerce(other)._f

    def __hash__(self):
        return hash(self._f)

    def __lt__(self, other):
        other = _coerce(other)
        if self._f is None:
            return False
        if other._f is None:
            return True
        return self._f < other._f

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __repr__(self):
        return f"Value({self._f})" if self._f is not None else "Value(inf)"

    def __str__(self):
        return str(self._f) if self._f is not None else "inf"


def _coerce(x) -> Value:
    if isinstance(x, Value):
        return x
    return Value(x)


INFINITY = Value(None)


class ValueGroup:
    """The group g*Z for g in {1, 1/2}, with the coset decomposition that
    produced it: representatives of {0, v(a)/2, v(b)/2, v(ab)/2} modulo Z."""

    __slots__ = ("generator", "coset_reps")

    def __init__(self, generator: Fraction, coset_reps: tuple[Fraction, ...]):
        self.generator = Fraction(generator)
        self.coset_reps = tuple(Fraction(r) % 1 for r in coset_reps)

    def contains(self, value: Value) -> bool:
        if value.is_infinite:
            return True
        return (value.fraction / self.generator).denominator == 1

    def __eq__(self, other):
        return (isinstance(other, ValueGroup)
                and self.generator == other.generator
                and self.coset_reps == other.coset_reps)

    def __repr__(self):
        name = "Z" if self.generator == 1 else "(1/2)Z"
        return f"ValueGroup({name}, cosets={list(map(str, self.coset_reps))})"
