"""Discrete rank-1 valuations on the supported base fields.

Three kinds are provided, each normalized so the value group is Z:

* the p-adic valuation on Q for an odd prime p,
* the place of k(t) at a monic irreducible pi (for k = Q only degree-1
  places are allowed, so that the residue field stays Q),
* the infinite place of k(t), v = -deg, with uniformizer 1/t.

Every valuation is nondyadic by construction: v(2) = 0 always holds, since
p = 2 and characteristic-2 coefficient fields are rejected.

All residue fields are presented through the fields module (F_p[u]/(m) or Q),
so downstream code has a single representation to handle; residue fields of
higher-degree places over non-prime constant fields are flattened.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ContextMismatch, InvariantViolated, NegativeValue,
                     UnsupportedField, UnsupportedPlace, ZeroInput)
from .fields import (FF, FlatQuotient, FunctionField, Poly, QQ, RationalField,
                     RatFunc)
from .integers import is_prime
from .value import INFINITY, Value


class Valuation:
    """The interface of every valuation-like object: ``domain``,
    ``residue_field``, ``uniformizer``, ``value_of``, ``residue_of`` (value
    >= 0), ``unit_part``, ``row_order`` (the value of a polynomial given as
    rows, ``RatFunc.rows``), ``describe``, and on base valuations ``lift``,
    a section of the residue map.  Base valuations set ``base``, read as
    ``domain``.  A Gauss extension provides the same interface on E(x), so
    it stands wherever a base valuation does.
    """

    @property
    def domain(self):
        return self.base

    def _nonnegative(self, x):
        """x in the domain and its value, which ``residue_of`` needs >= 0."""
        x = self.domain.coerce(x)
        val = self.value_of(x)
        if val < 0:
            raise NegativeValue(f"v({x}) = {val} < 0")
        return x, val

    def unit_part(self, x):
        """Write x = pi^m * u exactly, with v(u) = 0; returns (m, u)."""
        x = self.domain.coerce(x)
        if not x:
            raise ZeroInput("unit part of zero")
        m = self.value_of(x).fraction
        if m.denominator != 1:
            raise InvariantViolated(f"unit_part of an element of value {m}")
        m = int(m)
        u = x * self.uniformizer ** (-m) if m else x
        return m, u

    def __repr__(self):
        return self.describe()


class PAdicValuation(Valuation):
    """The p-adic valuation on Q, p an odd prime."""

    def __init__(self, p: int):
        if p == 2:
            raise UnsupportedPlace("dyadic valuations are excluded (v(2) = 0 "
                                   "is a standing hypothesis)")
        if not is_prime(p):
            raise UnsupportedPlace(f"{p} is not prime")
        self.p = p
        self.base = QQ
        self.residue_field = FF(p, _validate=False)
        self.uniformizer = Fraction(p)

    def value_of(self, x) -> Value:
        x = self.base.coerce(x)
        if not x:
            return INFINITY
        return Value(self.row_order(x.numerator)
                     - self.row_order(x.denominator))

    def row_order(self, n: int) -> int:
        """Order at p of a nonzero integer: an entry of a row of Z[x]
        (``RatFunc.rows``), valued like the rows of Z[t] and F_q[t]."""
        return _int_order(n, self.p)

    def residue_of(self, x):
        x, v = self._nonnegative(x)
        if v.is_infinite or v > 0:
            return self.residue_field.zero()
        return self.residue_field.from_int(
            x.numerator * pow(x.denominator, -1, self.p))

    def lift(self, r) -> Fraction:
        r = self.residue_field.coerce(r)
        return Fraction(r.lift_int())

    def describe(self) -> str:
        return f"Q:p={self.p}"

    def __eq__(self, other):
        return isinstance(other, PAdicValuation) and other.p == self.p

    def __hash__(self):
        return hash(("padic", self.p))


def _int_order(n: int, p: int) -> int:
    if n == 0:
        raise ZeroInput("order of zero")
    m = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        m += 1
    return m


class PlaceValuation(Valuation):
    """The place of k(t) at a monic irreducible polynomial pi.  Callers
    that already know pi is irreducible, such as a factor that ``factor``
    returned, pass ``_validate=False``."""

    def __init__(self, base: FunctionField, pi: Poly, _validate: bool = True):
        k = base.coefficient_field
        if pi.ring != base.ring:
            raise ContextMismatch("place polynomial is not over the base field")
        if pi.degree() < 1:
            raise UnsupportedPlace("place polynomial must be nonconstant")
        pi = pi.monic()
        self.base = base
        self.pi = pi
        self.uniformizer = base.from_poly(pi)
        self._flat = None
        if isinstance(k, RationalField):
            if pi.degree() != 1:
                raise UnsupportedPlace(
                    "only degree-1 places of Q(t) are supported (residue "
                    "fields must stay Q)")
            self.residue_field = QQ
            self._root = -pi.coeffs[0]
        elif isinstance(k, FF):
            self._pi = base.kernel.rows(pi.coeffs)[0]
            if pi.degree() == 1:
                self.residue_field = k
            else:
                try:
                    self._flat = FlatQuotient(k, pi, _validate=_validate)
                except UnsupportedField:
                    raise UnsupportedPlace(
                        f"{pi} is reducible, not a place") from None
                self.residue_field = self._flat.flat
        else:
            raise UnsupportedField(f"unsupported constant field {k!r}")

    def value_of(self, x) -> Value:
        x = self.base.coerce(x)
        if not x:
            return INFINITY
        n, d = x.rows
        return Value(self.row_order(n) - self.row_order(d))

    def row_order(self, row: list[int]) -> int:
        """Order of a nonzero row of Z[t] or F_q[t] (``RatFunc.rows``).
        Over F_q(t) it is repeated division by pi.  At a place t - a/b of
        Q(t) it is synthetic division: b*t - a is primitive, so by Gauss's
        lemma it divides the row over Z exactly when it divides it over Q,
        and a quotient that leaves Z ends the count."""
        if self.residue_field is not QQ:
            return self.base.kernel.order(row, self._pi)
        a, b = self._root.numerator, self._root.denominator
        m = 0
        while len(row) > 1:
            acc, quo = 0, []
            for c in row[:-1]:
                acc = c + a * acc
                if b != 1:
                    acc, r = divmod(acc, b)
                    if r:
                        return m
                quo.append(acc)
            if row[-1] + a * acc:
                return m
            row, m = quo, m + 1
        return m

    def residue_of(self, x):
        x, v = self._nonnegative(x)
        if v.is_infinite:
            return self.residue_field.zero()
        if self.residue_field is QQ:
            return x.num(self._root) / x.den(self._root)
        if self._flat is not None:
            return (self._flat.row_to_flat(x.rows[0])
                    / self._flat.row_to_flat(x.rows[1]))
        K = self.base.kernel
        n, d = (K.divmod(r, self._pi)[1] for r in x.rows)
        return K.element(n) / K.element(d)

    def lift(self, r) -> RatFunc:
        if self._flat is not None:
            return self.base.from_poly(self._flat.from_flat(
                self.residue_field.coerce(r)))
        return self.base.coerce(self.base.ring.poly([r]))

    def describe(self) -> str:
        k = self.base.coefficient_field
        if isinstance(k, RationalField):
            return f"Q(t):place={self.pi}"
        return f"Fq(t):q={k.order},place={self.pi}"

    def __eq__(self, other):
        return (isinstance(other, PlaceValuation) and other.base == self.base
                and other.pi == self.pi)

    def __hash__(self):
        return hash(("place", self.base, self.pi))


class InfinitePlaceValuation(Valuation):
    """The degree valuation v = deg(den) - deg(num) on k(t), uniformizer 1/t,
    read off the reduced rows of ``RatFunc``."""

    def __init__(self, base: FunctionField):
        k = base.coefficient_field
        if not isinstance(k, (RationalField, FF)):
            raise UnsupportedField(f"unsupported constant field {k!r}")
        self.base = base
        self.residue_field = k
        self.uniformizer = RatFunc(base, base.ring.one(), base.ring.gen())

    def value_of(self, x) -> Value:
        x = self.base.coerce(x)
        if not x:
            return INFINITY
        n, d = x.rows
        return Value(self.row_order(n) - self.row_order(d))

    def row_order(self, row: list[int]) -> int:
        """-deg of a nonzero row of Z[t] or F_q[t] (``RatFunc.rows``)."""
        return -self.base.kernel.degree(row)

    def residue_of(self, x):
        x, v = self._nonnegative(x)
        if v.is_infinite or v > 0:
            return self.residue_field.zero()
        (n, d), K = x.rows, self.base.kernel
        if self.residue_field is QQ:
            return Fraction(n[0], d[0])
        return K.element(K.lead(n)) / K.element(K.lead(d))

    def lift(self, r) -> RatFunc:
        return self.base.coerce(self.base.ring.poly([r]))

    def describe(self) -> str:
        k = self.base.coefficient_field
        if isinstance(k, RationalField):
            return "Q(t):place=inf"
        return f"Fq(t):q={k.order},place=inf"

    def __eq__(self, other):
        return isinstance(other, InfinitePlaceValuation) and other.base == self.base

    def __hash__(self):
        return hash(("infplace", self.base))
