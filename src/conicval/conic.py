"""The function field F = E(x)(s) with s^2 = a*x^2 + b, and the distinguished
extension of a valuation v on E to F.

The distinguished extension w* restricts to E(x^2) as the Gauss extension
w1 with respect to z = a*x^2/b and extends uniquely to F.  It is

    w*(f + g*s) = min(omega(f), omega(g) + v(b)/2),

omega the monomial valuation on E(x) with omega(x) = (v(b) - v(a))/2, which
restricts to w1 on E(x^2) (``DistinguishedExtension.value_of`` says why).
Residues are read off omega's initial forms of f and g, with no Gauss
extension built.  tests/test_conic.py checks values against the norm
identity w1(N(e)) = 4*w*(e), N the norm to E(x^2), and against the
components along the basis (1, x, s, xs) of F over E(x^2), valued one by
one, and residues against multiplicativity and the named generators.

The value group is Gamma union the cosets (v(a)/2 + Gamma), (v(b)/2 + Gamma),
(v(ab)/2 + Gamma).  The residue field is described explicitly: a conic
kappa(T)(sqrt(a0bar*T^2 + b0bar)) when v(a) and v(b) are both even, and a
rational field kappa(r) (with the generator and the expression of zbar in r
recorded and symbolically verified) when exactly one of v(a), v(b), v(ab)
is even.  All three being odd is impossible since they sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InvariantViolated, NonzeroValue, PreconditionViolated,
                     WitnessNotFound, ZeroElement, ZeroInput)
from .fields import FunctionField, RatFunc, is_square
from .gauss import (GaussExtension, RAMIFIED, SPLIT_PAIR,
                    quadratic_extension_analysis)
from .quaternion import (QuaternionAlgebra, UNRAMIFIED_EXTENSION,
                         conic_points, decide_unramified_extension, is_split)
from .value import Value, ValueGroup
from .valuation import Valuation


class ConicFunctionField:
    """E(x)(s) with s^2 = a*x^2 + b; the function field of a*X^2 + b*Y^2 = Z^2."""

    def __init__(self, base, a, b, var: str = "x", sname: str = "s"):
        self.base = base
        self.ef = FunctionField(base, var)          # E(x)
        self.zfield = FunctionField(base, "z")      # E(z), z standing for x^2
        self.a = base.coerce(a)
        self.b = base.coerce(b)
        if not self.a or not self.b:
            raise ZeroInput("conic coefficients must be nonzero")
        self.var = var
        self.sname = sname
        self.norm_poly = self.ef.from_poly(
            self.ef.ring.poly([self.b, base.zero(), self.a]))   # a*x^2 + b
        self.rational_warning = is_square(self.b, base)[0]

    def element(self, f, g=0) -> "ConicFieldElement":
        return ConicFieldElement(self, f, g)

    def coerce(self, x) -> "ConicFieldElement":
        """x itself if it lies in this field, else x + 0*s for x in E(x)."""
        if isinstance(x, ConicFieldElement):
            if x.cf is self or x.cf == self:
                return x
            raise ZeroInput("elements of different conic fields")
        return ConicFieldElement(self, x, 0)

    def x(self) -> "ConicFieldElement":
        return self.element(self.ef.gen())

    def s(self) -> "ConicFieldElement":
        return self.element(0, 1)

    def __eq__(self, other):
        return (isinstance(other, ConicFunctionField) and other.base == self.base
                and other.a == self.a and other.b == self.b
                and other.var == self.var)

    def __repr__(self):
        return (f"{self.base!r}({self.var})({self.sname}), "
                f"{self.sname}^2 = ({self.a})*{self.var}^2 + ({self.b})")


class ConicFieldElement:
    """f + g*s with f, g rational functions in x."""

    __slots__ = ("cf", "f", "g")

    def __init__(self, cf: ConicFunctionField, f, g=0):
        self.cf = cf
        self.f = cf.ef.coerce(f)
        self.g = cf.ef.coerce(g)

    def __add__(self, other):
        o = self.cf.coerce(other)
        return ConicFieldElement(self.cf, self.f + o.f, self.g + o.g)

    __radd__ = __add__

    def __sub__(self, other):
        o = self.cf.coerce(other)
        return ConicFieldElement(self.cf, self.f - o.f, self.g - o.g)

    def __neg__(self):
        return ConicFieldElement(self.cf, -self.f, -self.g)

    def __mul__(self, other):
        o = self.cf.coerce(other)
        m = self.cf.norm_poly
        return ConicFieldElement(self.cf,
                                 self.f * o.f + self.g * o.g * m,
                                 self.f * o.g + self.g * o.f)

    __rmul__ = __mul__

    def inverse(self) -> "ConicFieldElement":
        if not self:
            raise ZeroElement("inverse of zero")
        norm = self.f * self.f - self.g * self.g * self.cf.norm_poly
        return ConicFieldElement(self.cf, self.f / norm, -self.g / norm)

    def __truediv__(self, other):
        return self * self.cf.coerce(other).inverse()

    def __bool__(self):
        return bool(self.f) or bool(self.g)

    def __eq__(self, other):
        o = self.cf.coerce(other)
        return self.f == o.f and self.g == o.g

    def quadruple(self):
        """(e0, e1, e2, e3) over E(z) with the element equal to
        e0(x^2) + e1(x^2)*x + e2(x^2)*s + e3(x^2)*x*s."""
        e0, e1 = _even_odd(self.f, self.cf.zfield)
        e2, e3 = _even_odd(self.g, self.cf.zfield)
        return e0, e1, e2, e3

    def __repr__(self):
        return str(self)

    def __str__(self):
        if not self.g:
            return str(self.f)
        gs = f"({self.g})*{self.cf.sname}"
        if not self.f:
            return gs
        return f"({self.f}) + {gs}"


def _even_odd(rf: RatFunc, zfield: FunctionField):
    """Split h(x) as he(x^2) + x*ho(x^2); returns (he, ho) as elements of E(z)."""
    dneg = rf.den.subs_neg()
    m = rf.num * dneg
    d = rf.den * dneg
    if any(d.coeffs[1::2]):
        raise InvariantViolated("den * den(-x) must be even")
    dz = zfield.ring.poly(list(d.coeffs[0::2]))
    he = RatFunc(zfield, zfield.ring.poly(list(m.coeffs[0::2])), dz)
    ho = RatFunc(zfield, zfield.ring.poly(list(m.coeffs[1::2])), dz)
    return he, ho


# ---------------------------------------------------------------------------
# residue field descriptions
# ---------------------------------------------------------------------------


class ResidueConicDesc:
    """kappa(T)(S) with S^2 = a0bar*T^2 + b0bar; arises when v(a), v(b) are
    both even.  a0 = a*u^2 and b0 = b*nu^2 are the unit rescalings and T is
    the residue of (nu/u)*x.  The field has the shape of F itself, so
    ``conic`` is a ConicFunctionField over kappa and residues are its
    elements."""

    variant = "conic"

    def __init__(self, kappa, a0bar, b0bar, a0, b0, u, nu):
        self.kappa = kappa
        self.a0bar = a0bar
        self.b0bar = b0bar
        self.a0 = a0
        self.b0 = b0
        self.u = u
        self.nu = nu
        self.conic = ConicFunctionField(kappa, a0bar, b0bar, "T", "S")

    def relation(self) -> str:
        return f"{self.conic.sname}^2 = {self.conic.norm_poly}"

    def __str__(self):
        return f"{self.kappa!r}({self.conic.var})(sqrt({self.conic.norm_poly}))"

    def as_dict(self):
        return {
            "variant": "conic",
            "kappa": repr(self.kappa),
            "a0bar": str(self.a0bar), "b0bar": str(self.b0bar),
            "a0": str(self.a0), "b0": str(self.b0),
            "scaling_u": str(self.u), "scaling_nu": str(self.nu),
            "generators": [self.conic.var, self.conic.sname],
            "relation": self.relation(),
        }


class ResidueRationalDesc:
    """kappa(r), arising when the value group is (1/2)Z.

    ``zbar_expr`` expresses zbar (the residue of a*x^2/b) in the rational
    generator r, and ``sqrt_expr`` is the square root adjoined by the
    quadratic step, also written in r; both are verified symbolically at
    construction time.
    """

    variant = "rational"

    def __init__(self, kappa, subcase: str, u, ubar):
        self.kappa = kappa
        self.subcase = subcase          # which of v(a), v(b), v(ab) is even
        self.u = u
        self.ubar = ubar
        self.rfield = FunctionField(kappa, "r")
        ring = self.rfield.ring
        r = self.rfield.gen()
        rr_minus_u = ring.poly([-ubar, kappa.zero(), kappa.one()])
        if subcase == "a":
            # sqrt(ubar*z*(z+1)); lines through (0,0): z = ubar/(r^2-ubar)
            self.zbar_expr = RatFunc(self.rfield, ring.poly([ubar]), rr_minus_u)
            self.sqrt_expr = r * self.zbar_expr
            check = self.sqrt_expr ** 2 == (
                self.zbar_expr * (self.zbar_expr + 1) * ubar)
        elif subcase == "b":
            # sqrt(ubar*(z+1)); r itself, z = r^2/ubar - 1
            self.zbar_expr = RatFunc(self.rfield, rr_minus_u, ring.poly([ubar]))
            self.sqrt_expr = r
            check = self.sqrt_expr ** 2 == (self.zbar_expr + 1) * ubar
        elif subcase == "ab":
            # sqrt(ubar*z); r itself, z = r^2/ubar
            self.zbar_expr = RatFunc(self.rfield, ring.poly(
                [kappa.zero(), kappa.zero(), kappa.one()]), ring.poly([ubar]))
            self.sqrt_expr = r
            check = self.sqrt_expr ** 2 == self.zbar_expr * ubar
        else:
            raise ZeroInput(f"unknown subcase {subcase!r}")
        if not check:
            raise InvariantViolated(
                "rational parametrization failed symbolic verification")

    def __str__(self):
        return f"{self.kappa!r}({self.rfield.var}), zbar = {self.zbar_expr}"

    def as_dict(self):
        return {
            "variant": "rational",
            "kappa": repr(self.kappa),
            "subcase": self.subcase,
            "unit": str(self.u), "unit_residue": str(self.ubar),
            "generators": [self.rfield.var],
            "zbar_in_r": str(self.zbar_expr),
            "sqrt_in_r": str(self.sqrt_expr),
        }


# ---------------------------------------------------------------------------
# the distinguished extension
# ---------------------------------------------------------------------------

CASE_UNITS = "case3_units"
CASE_A = "case2_a"
CASE_B = "case2_b"
CASE_AB = "case2_ab"


def distinguished_value_group(v: Valuation, cf: ConicFunctionField) -> ValueGroup:
    """Gamma union the three half-cosets; Z or (1/2)Z for discrete v."""
    va = v.value_of(cf.a).fraction
    vb = v.value_of(cf.b).fraction
    reps = (Fraction(0), Fraction(va, 2), Fraction(vb, 2), Fraction(va + vb, 2))
    gen = Fraction(1) if va % 2 == 0 and vb % 2 == 0 else Fraction(1, 2)
    return ValueGroup(gen, reps)


class DistinguishedExtension:
    """The unique extension to F of the Gauss extension on E(x^2) with
    respect to a*x^2/b; values and residues by the monomial valuation omega
    on E(x)."""

    def __init__(self, v: Valuation, cf: ConicFunctionField):
        self.v = v
        self.conic_field = cf
        self.va = int(v.value_of(cf.a).fraction)
        self.vb = int(v.value_of(cf.b).fraction)
        self._gamma = Fraction(self.vb - self.va, 2)     # omega(x)
        self._half_b = Fraction(self.vb, 2)              # w*(s)
        self._delta = self._gamma.denominator            # 1 if gamma in Z, else 2
        self.value_group = distinguished_value_group(v, cf)
        self._build_residue_desc()

    def _build_residue_desc(self):
        """The residue field; kappa(Xbar), Xbar in its generators (None for
        T) and the power of x in sigma, for ``residue_of``."""
        v, cf = self.v, self.conic_field
        va, vb = self.va, self.vb
        pi = v.uniformizer
        self._x_shift = 0
        if va % 2 == 0 and vb % 2 == 0:
            self.case_tag = CASE_UNITS
            u = pi ** (-(va // 2)) if va else v.domain.coerce(1)
            nu = pi ** (-(vb // 2)) if vb else v.domain.coerce(1)
            a0 = cf.a * u * u
            b0 = cf.b * nu * nu
            self.residue = ResidueConicDesc(
                v.residue_field, v.residue_of(a0), v.residue_of(b0),
                a0, b0, u, nu)
            self._xfield, self._xbar = self.residue.conic.ef, None
            return
        if va % 2 == 0:
            self.case_tag = CASE_A
            u = cf.a * pi ** (-va) if va else cf.a
            self._x_shift = 1
            subcase = "a"
        elif vb % 2 == 0:
            self.case_tag = CASE_B
            u = cf.b * pi ** (-vb) if vb else cf.b
            subcase = "b"
        else:
            # v(a), v(b) odd forces v(ab) even; all three odd cannot happen
            self.case_tag = CASE_AB
            u = cf.a * cf.b * pi ** (-(va + vb))
            subcase = "ab"
        desc = self.residue = ResidueRationalDesc(
            v.residue_field, subcase, u, v.residue_of(u))
        self._xfield = FunctionField(v.residue_field, "X")
        if subcase == "ab":
            self._xbar = desc.rfield.gen() / v.residue_of(cf.a * pi ** (-va))
        else:
            self._xbar = desc.zbar_expr / v.residue_of(
                cf.a * pi ** (vb - va) / cf.b)

    @property
    def domain(self):
        return self.conic_field

    def describe(self) -> str:
        cf = self.conic_field
        return (f"w*[{self.v.describe()}; s^2 = ({cf.a})*{cf.var}^2 + ({cf.b})]")

    def value_of(self, elem) -> Value:
        """w*(f + g*s) = min(omega(f), omega(g) + v(b)/2), omega the monomial
        valuation on E(x) with omega(x) = gamma = (v(b) - v(a))/2.

        This is the minimum of w1(e_i) + beta_i over the components e_i of
        the element along (1, x, s, xs) over E(x^2), w1 the Gauss extension
        with respect to a*x^2/b, whose values are beta = (0, gamma, v(b)/2,
        gamma + v(b)/2).  omega restricted to E(x^2) is w1, since 2*gamma =
        -v(a/b).  Write f = e0(x^2) + x*e1(x^2).  If gamma is not in Gamma,
        omega(e0) and omega(x*e1) lie in different cosets of Gamma.  If it
        is, omega is the Gauss valuation in X = x/c, c in E of value gamma,
        and the residues of e0 and x*e1, scaled by a common constant, lie in
        kappa(Xbar^2) and Xbar*kappa(Xbar^2), which meet only in 0.  Either
        way no cancellation occurs and omega(f) = min(w1(e0) + beta_0,
        w1(e1) + beta_1); likewise for g.

        omega is multiplicative, so f is valued on the pair N/D that it
        stores (``RatFunc.fraction``, unreduced at level 1), with no gcd run.
        """
        elem = self.conic_field.coerce(elem)
        if not elem:
            raise ZeroElement("the distinguished extension has no value at 0")
        values = []
        for h, shift in ((elem.f, 0), (elem.g, self._half_b)):
            if h:
                n, d = h.fraction
                values.append(self._omega(n) - self._omega(d) + shift)
        return Value(min(values))

    def _omega(self, rows) -> Fraction:
        """omega of a nonzero polynomial of Z[x], Z[t][x] or F_q[t][x]
        given as rows (``RatFunc.rows``, highest degree first): the least
        ``v.row_order(c) + j*gamma`` over its nonzero entries c of degree j."""
        order, gamma, top = self.v.row_order, self._gamma, len(rows) - 1
        return min(order(c) + (top - i) * gamma
                   for i, c in enumerate(rows) if c)

    def residue_of(self, elem):
        """Residue of a value-zero element, in the generators of the
        residue-field description: res(f + g*s) = R(f) + R(g*sigma)*xi, for
        sigma in E(x) with w*(sigma) = w*(s) = v(b)/2 and xi = res(s/sigma).

        R(h) is 0 when omega(h) > 0, else in(N)/in(D) on the pair N/D that h
        stores (initial forms multiply, so any pair gives R(h)).  For P =
        sum c_j*x^j of omega(P) = m, in(P) = sum res(c_j*pi^(j*gamma - m)) *
        Xbar^floor(j/delta) over the terms where omega attains m, at which
        j*gamma - m = -v(c_j).  delta is 1 if gamma is in Z, else 2; then
        those terms' j share one parity, and a factor x/pi^gamma of odd terms
        cancels in the quotient.  For sigma = pi^k*x^e, R(g*sigma) =
        in(N*x^e)/in(D), as pi^k drops out of every coefficient.  Per case:

        * case3_units: Xbar = T = res(x/pi^gamma), sigma = pi^(v(b)/2), xi = S;
        * case2_a: Xbar = res(x^2/pi^(2*gamma)) = zbar/res(a*pi^(v(b)-v(a))/b),
          zbar = res(a*x^2/b) (``zbar_expr``); sigma = pi^(v(a)/2)*x, xi = r;
        * case2_b: the same Xbar, sigma = pi^(v(b)/2) and xi = r;
        * case2_ab: Xbar = r/res(a*pi^(-v(a))), r = res(a*x/pi^((v(a)+v(b))/2));
          g*s never has value 0, as omega(g) is in Z and v(b)/2 is not.
        """
        elem = self.conic_field.coerce(elem)
        val = self.value_of(elem)
        if val != Value(0):
            raise NonzeroValue(f"w*({elem}) = {val} != 0")
        f = self._initial_quotient(elem.f, 0, 0)
        g = self._initial_quotient(elem.g, self._x_shift, self._half_b)
        if self._xbar is None:
            return self.residue.conic.element(f, g)
        return self.residue.rfield.gen() * g(self._xbar) + f(self._xbar)

    def _initial_quotient(self, h, shift, offset):
        """R(h*sigma) in kappa(Xbar), for sigma = pi^k*x^shift of value
        offset: in(N*x^shift)/in(D), or 0 when omega(h) + offset > 0."""
        if not h:
            return self._xfield.zero()
        n, d = h.fraction
        (mn, pn), (md, pd) = self._initial(n, shift), self._initial(d, 0)
        if mn - md + offset:
            return self._xfield.zero()
        return RatFunc(self._xfield, pn, pd)

    def _initial(self, rows, shift):
        """omega(P) and in(P*x^shift), for P given as rows (``RatFunc.rows``,
        highest degree first)."""
        v, gamma, top, delta = self.v, self._gamma, len(rows) - 1, self._delta
        orders = {top - i: v.row_order(c) for i, c in enumerate(rows) if c}
        m = min(k + j * gamma for j, k in orders.items())
        ef, ring = self.conic_field.ef, self._xfield.ring
        p = ef.kernel.to_poly(ef.ring, rows, ef.kernel.one).coeffs   # in E
        coeffs = [ring.field.zero()] * ((top + shift) // delta + 1)
        for j, k in orders.items():
            if k + j * gamma == m:
                coeffs[(j + shift) // delta] = v.residue_of(
                    p[j] * v.uniformizer ** (-k))
        return m, ring.poly(coeffs)


# ---------------------------------------------------------------------------
# families of extensions with rational residue field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFamilyMember:
    pivot: RatFunc                 # c*x or c*(x - shift)
    c: object
    c_value: int                   # v(c); members with distinct values differ
    constraint: str
    gauss: GaussExtension
    quadratic_kind: str            # RAMIFIED or SPLIT_PAIR, audited
    residue_description: str
    shift: object | None = None
    conic_point: tuple | None = None

    def as_dict(self):
        return {
            "pivot": str(self.pivot),
            "c": str(self.c),
            "v_of_c": self.c_value,
            "constraint": self.constraint,
            "quadratic_kind": self.quadratic_kind,
            "residue_field": self.residue_description,
            "shift": None if self.shift is None else str(self.shift),
            "conic_point": None if self.conic_point is None
            else [str(p) for p in self.conic_point],
        }


def rational_residue_family(v: Valuation, cf: ConicFunctionField,
                            count: int) -> list[RationalFamilyMember]:
    """Pairwise distinct extensions of v to F whose residue fields are
    rational over kappa; only available when no unramified extension to the
    quaternion algebra exists.

    With v(a) or v(b) odd the pivots are c*x with v(c) chosen so that
    w_c(a*x^2 + b) is odd (the quadratic step ramifies).  With both even the
    pivots are c*(x - shift) for a lifted residue conic point and v(c) < 0
    (the quadratic step splits).  Either way the residue field of every
    extension of the Gauss extension to F is kappa(pivot residue).
    """
    verdict = decide_unramified_extension(
        QuaternionAlgebra(cf.base, cf.a, cf.b), v)
    if verdict.kind == UNRAMIFIED_EXTENSION:
        raise PreconditionViolated(
            "an unramified extension exists; no rational-residue family")
    return _residue_family(v, cf, None, count)


def _residue_family(v: Valuation, cf: ConicFunctionField, ext,
                    count: int) -> list[RationalFamilyMember]:
    """The family of ``rational_residue_family``, once no unramified
    extension is known to exist; ext is the distinguished extension of v
    to cf, or None to build it when needed."""
    if count < 0:
        raise ZeroInput("negative count")
    if count == 0:
        return []
    va = int(v.value_of(cf.a).fraction)
    vb = int(v.value_of(cf.b).fraction)
    pi = v.uniformizer
    if va % 2 or vb % 2:
        expected, a_term = RAMIFIED, va % 2 == 1
    else:
        # both even: the quadratic step must split.  Preferred construction:
        # shift the pivot to a lifted unit point of the residue conic.  When
        # no such point exists (possible over tiny residue fields) pivots c*x
        # still work provided the residue of the dominant coefficient is a
        # square.
        ext = ext or DistinguishedExtension(v, cf)
        desc = ext.residue
        point = next(((x / y, z / y) for x, y, z in conic_points(
            desc.a0bar, desc.b0bar, v.residue_field)
            if x and y and z), None)
        if point is not None:
            xbar, ybar = point
            shift = (desc.u / desc.nu) * v.lift(xbar)
            cc = desc.nu / desc.u
            members = []
            for i in range(1, count + 1):
                c = pi ** (-i) * cc
                pivot = RatFunc(cf.ef, cf.ef.ring.poly([-c * shift, c]),
                                cf.ef.ring.one())
                members.append(_family_member(
                    v, cf, pivot, c, -i,
                    "v(c) < 0 (in normalized coordinates)",
                    expected=SPLIT_PAIR, shift=shift, conic_point=point))
            return members
        expected = SPLIT_PAIR
        a_term = next((dominant for dominant, coeff in (
            (True, desc.a0bar), (False, desc.b0bar))
            if is_square(coeff, v.residue_field)[0]), None)
        if a_term is None:
            raise WitnessNotFound(
                "no unit point of the residue conic found and neither "
                "coefficient residue is a square")
    # pivots c*x with c = pi^k: w_c(a*x^2 + b) = min(v(a) - 2k, v(b)).  k
    # runs up from floor((v(a) - v(b))/2) + 1, where the a-term dominates,
    # or down from floor((v(a) - v(b) - 1)/2), where the b-term does; the
    # dominant term has an odd value (ramified) or, both values even, a
    # square unit residue (split).
    if a_term:
        k0, step, constraint = (va - vb) // 2 + 1, 1, "2*v(c) > v(a) - v(b)"
    else:
        k0, step, constraint = (va - vb - 1) // 2, -1, "2*v(c) < v(a) - v(b)"
    members = []
    for k in range(k0, k0 + step * count, step):
        c = pi ** k
        pivot = RatFunc(cf.ef, cf.ef.ring.poly([v.domain.zero(), c]),
                        cf.ef.ring.one())
        members.append(_family_member(v, cf, pivot, c, k, constraint,
                                      expected=expected))
    return members


def _family_member(v, cf, pivot, c, k, constraint, expected,
                   shift=None, conic_point=None) -> RationalFamilyMember:
    w = GaussExtension(v, pivot, residue_var="y")
    qa = quadratic_extension_analysis(w, cf.norm_poly)
    if qa.kind != expected:
        raise InvariantViolated(
            f"family member with pivot {pivot}: quadratic step is {qa.kind}, "
            f"expected {expected}")
    kappa = repr(v.residue_field)
    return RationalFamilyMember(
        pivot=pivot, c=c, c_value=k, constraint=constraint, gauss=w,
        quadratic_kind=qa.kind,
        residue_description=f"{kappa}(y), y the residue of {pivot}",
        shift=shift, conic_point=conic_point)


# ---------------------------------------------------------------------------
# full analysis
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    present: bool
    verdict: object
    value_group: ValueGroup
    residue: object
    case_tag: str
    family: list | None
    family_note: str | None
    rational_warning: bool
    checks: dict

    def as_dict(self):
        return {
            "verdict": "PRESENT" if self.present else "ABSENT",
            "extension_kind": self.verdict.kind,
            "normalization_transcript": self.verdict.as_dict()["transcript"],
            "decision": self.verdict.as_dict(),
            "value_group": {
                "generator": str(self.value_group.generator),
                "coset_representatives":
                    [str(r) for r in self.value_group.coset_reps],
            },
            "residue_field": self.residue.as_dict(),
            "case": self.case_tag,
            "family": None if self.family is None
            else [m.as_dict() for m in self.family],
            "family_note": self.family_note,
            "rational_function_field_warning": self.rational_warning,
            "checks": self.checks,
        }


def analyze(v: Valuation, cf: ConicFunctionField,
            family_count: int = 3) -> AnalysisReport:
    """Decide whether v extends to F with transcendental non-ruled residue
    field, and report every constructive object along the way.

    PRESENT: the distinguished extension is the unique such extension; its
    value group must be Z and its residue field the conic over kappa given
    by the unit rescalings, with division residue algebra (both re-checked).
    ABSENT: the reason from the quaternion decision, the residue field of
    the distinguished extension (then rational or a split conic), and a
    sample of the infinite family of rational-residue extensions.
    """
    q = QuaternionAlgebra(cf.base, cf.a, cf.b)
    verdict = decide_unramified_extension(q, v)
    ext = DistinguishedExtension(v, cf)
    present = verdict.kind == UNRAMIFIED_EXTENSION
    checks = {}
    family = None
    family_note = None
    if present:
        if ext.value_group.generator != 1:
            raise InvariantViolated("present case must have value group Z")
        if not isinstance(ext.residue, ResidueConicDesc):
            raise InvariantViolated(
                "present case must have a conic residue field")
        recheck = is_split(QuaternionAlgebra(
            v.residue_field, ext.residue.a0bar, ext.residue.b0bar))
        if recheck.split:
            raise InvariantViolated("residue conic must have no rational point")
        checks["value_group_is_Z"] = True
        checks["residue_conic_division"] = True
    else:
        try:
            family = _residue_family(v, cf, ext, family_count)
        except WitnessNotFound as exc:
            family = []
            family_note = str(exc)
    return AnalysisReport(present=present, verdict=verdict,
                          value_group=ext.value_group, residue=ext.residue,
                          case_tag=ext.case_tag, family=family,
                          family_note=family_note,
                          rational_warning=cf.rational_warning, checks=checks)

