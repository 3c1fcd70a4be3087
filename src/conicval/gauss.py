"""Gauss extensions of a valuation v to the rational function field E(x).

The Gauss extension with respect to a pivot Y (a degree-1 rational function
generating E(x) over E) assigns to sum a_i Y^i the minimum of the v(a_i) and
extends to quotients by additivity.  Its residue field is kappa(Ybar) with
Ybar transcendental over kappa, and its value group is that of v.

A Gauss extension provides the interface of ``valuation.Valuation`` except
``lift``, so it serves as the valuation v of a further Gauss extension, of
w* and of the families, with residue field kappa(Ybar), e.g. F_p(t).

Also here: the degree formula for subfields E(Y) of E(x), and the residue
analysis of quadratic extensions E(sqrt(a)) that drives every splitting
decision in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ConstantInput, InvalidPivot, NonzeroValue, SquareInput,
                     ZeroInput)
from .fields import FunctionField, Poly, RatFunc, is_square
from .value import INFINITY, Value
from .valuation import Valuation


class GaussExtension(Valuation):
    """The Gauss extension of ``v`` to ``pivot.field`` with respect to ``pivot``.

    A valuation on E(x) with the interface of a base valuation (unit_part
    inherited, no lift), with residues living in kappa(Ybar).
    """

    def __init__(self, v: Valuation, pivot: RatFunc, residue_var: str | None = None):
        field = pivot.field
        if field.coefficient_field != v.domain:
            raise InvalidPivot("pivot must be a rational function over the "
                               "base field of the valuation")
        deg = pivot.degree()
        if deg < 1:
            raise InvalidPivot("pivot lies in the base field")
        if deg > 1:
            raise InvalidPivot(
                f"pivot {pivot} has degree {deg} > 1; Gauss extensions are "
                "only defined on the full rational function field")
        self.v = v
        self.field = field
        self.pivot = pivot
        self._identity = (pivot == field.gen())
        if residue_var is None:
            residue_var = field.var if self._identity else "y"
        self.residue_var = residue_var
        self.residue_field = FunctionField(v.residue_field, residue_var)
        self.uniformizer = field.coerce(v.uniformizer)
        self._pivot_rows = None
        if not self._identity:
            # x = (d*Y - b)/(-c*Y + a) inverts Y = (a*x + b)/(c*x + d)
            num, den = pivot.num.coeffs, pivot.den.coeffs
            a = num[1] if len(num) > 1 else field.ring.field.zero()
            b = num[0] if len(num) > 0 else field.ring.field.zero()
            c = den[1] if len(den) > 1 else field.ring.field.zero()
            d = den[0] if len(den) > 0 else field.ring.field.zero()
            yfield = FunctionField(v.domain, "_y")
            self._inverse = RatFunc(yfield, yfield.ring.poly([-b, d]),
                                    yfield.ring.poly([a, -c]))
            # values run on rows: x = P'/Q', (P', Q') the inverse's rows
            p, q = self._inverse.rows
            self._pivot_rows = (p, q, min(v.row_order(r) for r in q if r))

    @property
    def domain(self):
        return self.field

    def _rewrite(self, h: RatFunc) -> RatFunc:
        """h in E(_y), the pivot's variable: for h = N/D of degree k > 0
        (``RatFunc.rows``), S(N)*Q'^(k - deg N) / (S(D)*Q'^(k - deg D)),
        with x = P'/Q' and S the substitution of ``_substituted``.  A
        constant h is substituted by ``RatFunc.__call__``, whose Horner's
        rule leaves it a bare coefficient of E: the Gauss-constant defect,
        whose fix is its own change."""
        if self._identity:
            return h
        k = h.degree()
        if k > 0:
            K, q = self.field.kernel, self._pivot_rows[1]
            return RatFunc(self._inverse.field, _rows=tuple(
                K.mul(self._substituted(r), K.pow(q, k - K.degree(r)))
                for r in h.rows))
        return h(self._inverse)

    def _min_value(self, f: Poly) -> Value:
        best = INFINITY
        for c in f.coeffs:
            if c:
                val = self.v.value_of(c)
                if val < best:
                    best = val
        return best

    def value_of(self, h) -> Value:
        """w(h) = w(N) - w(D), as the Gauss valuation is multiplicative.

        For the identity pivot or a nonconstant h, the pair N/D that h
        stores (``RatFunc.fraction``, unreduced at level 1) is valued by
        ``row_order``, with no RatFunc built and no gcd run: any pair of h
        gives the same difference.  A constant h (``RatFunc.is_constant``)
        with another pivot goes through ``_rewrite``, which keeps the
        Gauss-constant defect.
        """
        h = self.field.coerce(h)
        if not h:
            return INFINITY
        if self._identity or not h.is_constant():
            n, d = h.fraction
            return Value(self.row_order(n) - self.row_order(d))
        h = self._rewrite(h)
        return self._min_value(h.num) - self._min_value(h.den)

    def _substituted(self, rows):
        """sum R_i P'^i Q'^(d-i) for the rows R_i of a polynomial of degree
        d in x (``RatFunc.rows``, highest degree first), with x = P'/Q' the
        pivot's inverse: its substitution times Q'^d, by one Horner pass on
        rows."""
        p, q, _ = self._pivot_rows
        K = self.field.kernel
        acc, qpow = [rows[0]], K.one
        for r in rows[1:]:
            qpow = K.mul(qpow, q)
            acc = K.mul(acc, p)
            if r:
                acc = K.add(acc, K.mul([r], qpow))
        return acc

    def row_order(self, rows) -> int:
        """w of a nonzero polynomial of Z[x] over Q, Z[t][x] over Q(t) or
        F_q[t][x] over F_q(t), given as rows (``RatFunc.rows``): the least
        ``v.row_order`` of an entry for the identity pivot, and for another
        w_y(``_substituted(rows)``) - d*w_y(Q'), d the x-degree."""
        order = self.v.row_order
        if self._pivot_rows is None:
            return min(order(r) for r in rows if r)
        return (min(order(c) for c in self._substituted(rows) if c)
                - (len(rows) - 1) * self._pivot_rows[2])

    def residue_of(self, h):
        """Residue in kappa(Ybar); requires value >= 0, zero when value > 0."""
        h, val = self._nonnegative(h)
        if val.is_infinite:
            return self.residue_field.zero()
        h = self._rewrite(h)
        m = int(self._min_value(h.den).fraction)
        scale = self.v.uniformizer ** (-m) if m else None
        num = h.num.scale(scale) if scale is not None else h.num
        den = h.den.scale(scale) if scale is not None else h.den
        rnum = self.residue_field.ring.poly(
            [self.v.residue_of(c) for c in num.coeffs])
        rden = self.residue_field.ring.poly(
            [self.v.residue_of(c) for c in den.coeffs])
        return RatFunc(self.residue_field, rnum, rden)

    def describe(self) -> str:
        return f"gauss({self.v.describe()}; pivot={self.pivot})"


def gauss_extension(v: Valuation, field: FunctionField,
                    residue_var: str | None = None) -> GaussExtension:
    """The plain Gauss extension with pivot x itself."""
    return GaussExtension(v, field.gen(), residue_var=residue_var)


def gauss_residue(w: GaussExtension, h):
    """Residue of an element of value exactly zero (the documented surface)."""
    val = w.value_of(h)
    if val != Value(0):
        raise NonzeroValue(f"w({h}) = {val} != 0")
    return w.residue_of(h)


def subfield_degree(y: RatFunc) -> tuple[int, bool]:
    """[E(x) : E(y)] = max(deg num, deg den) for y = num/den coprime, and
    whether x is integral over E[y] (deg num > deg den)."""
    if y.degree() < 1:
        raise ConstantInput(f"{y} generates no subfield")
    return y.degree(), y.num.degree() > y.den.degree()


RAMIFIED = "ramified"
SPLIT_PAIR = "split_pair"
INERT = "inert"


@dataclass(frozen=True)
class QuadraticExtensionAnalysis:
    """How a valuation behaves on E(sqrt(a)) for a nonsquare a.

    RAMIFIED: v(a) odd; every extension has value group (1/2)Z.
    SPLIT_PAIR: v(a) even and the unit residue is a square; two extensions,
        both with residue field kappa.
    INERT: v(a) even and the unit residue is a nonsquare; one unramified
        extension with residue field kappa(sqrt(ubar)), named by ubar and
        not built.
    """

    kind: str
    value: Value
    unit: object | None = None           # u in a*E^2 with v(u) = 0
    residue_unit: object | None = None   # ubar
    sqrt_residue: object | None = None   # root of ubar in the split case

    def __str__(self):
        return self.kind


def quadratic_extension_analysis(v, a) -> QuadraticExtensionAnalysis:
    """Trichotomy for E(sqrt(a)) over any valuation-like object.

    Accepts base valuations and Gauss extensions alike; ``a`` must be a
    nonzero nonsquare of the valuation's domain.
    """
    domain = v.domain
    a = domain.coerce(a)
    if not a:
        raise ZeroInput("quadratic extension by sqrt(0)")
    ok, _ = is_square(a, domain)
    if ok:
        raise SquareInput(f"{a} is a square; E(sqrt(a)) is not an extension")
    val = v.value_of(a)
    if val.is_odd_integer():
        return QuadraticExtensionAnalysis(kind=RAMIFIED, value=val)
    _, u = v.unit_part(a)
    ubar = v.residue_of(u)
    sq, root = is_square(ubar, v.residue_field)
    if sq:
        return QuadraticExtensionAnalysis(kind=SPLIT_PAIR, value=val, unit=u,
                                          residue_unit=ubar, sqrt_residue=root)
    return QuadraticExtensionAnalysis(kind=INERT, value=val, unit=u,
                                      residue_unit=ubar)
