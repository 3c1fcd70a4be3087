"""Exact arithmetic for all coefficient domains.

Four element kinds are supported:

* arbitrary-precision rationals (plain ``fractions.Fraction`` values),
* elements of odd-characteristic finite fields F_p[u]/(m(u)),
* dense univariate polynomials over any supported field,
* rational functions in canonical form (coprime, monic denominator).

Field contexts (``QQ``, ``FF``, ``FunctionField``) carry construction helpers
and make mixed-context mistakes detectable.  Everything is immutable and all
operations are pure, so values can be shared freely across threads.

Finite fields are always presented as F_p[u]/(m); the prime field is the
degree-1 case with m = u, so residue-field code has a single representation
to deal with.

Rational functions have two normal forms.  In characteristic 0 a rational
function over Q (in Q(t) or Q(x), level 0) or over Q(t) (in Q(t)(x), level
1) is stored as its reduced rows (N, D) of Z[x] or Z[t][x] in sympy's dense
form, and computed on them; products and gcds of polynomials over Q and
Q(t) run on the same rows (a polynomial is rows over an L in Z or Z[t],
see ``_poly_rows``), and each output coefficient is built once.  In
characteristic p it is a pair of Polys.  Polynomials over a prime field
multiply, divide and take gcds on int rows with sympy's ``galoistools``;
F_{p^k} (which sympy lacks) keeps schoolbook and Euclid.

Over every finite field F_q, polynomials factor by one distinct-degree
routine (``_ddf``, iterated Frobenius x^(q^d) mod g) and a seeded
equal-degree split (``_edf``), in time polynomial in the degree and log q;
irreducibility is ``_ddf`` stopped at its first factor.  The modulus m of
F_p[u]/(m) is checked with galoistools' Rabin test on its int row.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.densearith import (dmp_add, dmp_mul, dmp_neg, dmp_pow,
                                    dup_exquo, dup_mul)
from sympy.polys.densebasic import dmp_ground_LC, dmp_to_tuple
from sympy.polys.euclidtools import dmp_inner_gcd, dup_inner_gcd
from sympy.polys.galoistools import gf_div, gf_gcd, gf_irred_p_rabin, gf_mul

from .errors import (ContextMismatch, DegreeTooLarge, DivisionByZero,
                     InvariantViolated, SquareInput, UnsupportedField,
                     ZeroInput, ZeroPolynomial)

# ---------------------------------------------------------------------------
# integer polynomials modulo p (internal helpers for FFElement arithmetic)
# ---------------------------------------------------------------------------


def _ip_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ip_sub(a, b, p):
    n = max(len(a), len(b))
    return _ip_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                     for i in range(n)])


def _ip_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ip_trim(out)


def _ip_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        k = len(rem) - len(b)
        c = (rem[-1] * inv_lead) % p
        quo[k] = c
        for j, bj in enumerate(b):
            rem[k + j] = (rem[k + j] - c * bj) % p
    return _ip_trim(quo), _ip_trim(rem)


def _ip_mod(a, b, p):
    return _ip_divmod(a, b, p)[1]


def _ip_xgcd(a, b, p):
    """Extended Euclid: returns (g, s) with s*a = g modulo b, g monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    while r1:
        q, r = _ip_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _ip_sub(s0, _ip_mul(q, s1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = _ip_mul(r0, (inv,), p)
        s0 = _ip_mul(s0, (inv,), p)
    return r0, s0


def _ip_pow_mod(a, e, mod, p):
    result = (1,)
    base = _ip_mod(a, mod, p)
    while e:
        if e & 1:
            result = _ip_mod(_ip_mul(result, base, p), mod, p)
        base = _ip_mod(_ip_mul(base, base, p), mod, p)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------


class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    characteristic = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def contains(self, x) -> bool:
        return isinstance(x, (Fraction, int))

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise ContextMismatch(f"{x!r} is not a rational number")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


QQ = RationalField()


class FF:
    """Finite field F_p[u]/(m(u)) with p an odd prime and m monic irreducible.

    The prime field is the degree-1 case with m = u.  Elements are coefficient
    vectors of length deg(m) with entries reduced modulo p; in the prime
    field they multiply, invert and power as ints modulo p, and F_{p^k}
    runs polynomial arithmetic on the vectors modulo m.  ``sqrt`` gives
    the root of least ``element_at`` index by Euler's test and Tonelli-Shanks.
    """

    def __init__(self, p: int, modulus: tuple[int, ...] | None = None,
                 var: str = "u", _validate: bool = True):
        if p == 2:
            raise UnsupportedField("characteristic 2 is not supported")
        if _validate and not sympy.isprime(p):
            raise UnsupportedField(f"{p} is not prime")
        if modulus is None:
            modulus = (0, 1)
        modulus = _ip_trim([c % p for c in modulus])
        if len(modulus) < 2:
            raise UnsupportedField("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise UnsupportedField("modulus must be monic")
        if _validate and not gf_irred_p_rabin(list(reversed(modulus)), p, ZZ):
            raise UnsupportedField(f"modulus {modulus} is reducible mod {p}")
        self.p = p
        self.modulus = modulus
        self.var = var
        self.degree = len(modulus) - 1
        self.order = p ** self.degree
        self._nonsquare = None      # cached by _canonical_nonsquare

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, coeffs) -> "FFElement":
        if self.degree == 1:    # modulo u only the constant term is left
            return FFElement(self, (coeffs[0] % self.p if coeffs else 0,))
        c = [x % self.p for x in coeffs]
        if len(c) > self.degree:
            c = list(_ip_mod(tuple(c), self.modulus, self.p))
        c += [0] * (self.degree - len(c))
        return FFElement(self, tuple(c))

    def from_int(self, n: int) -> "FFElement":
        return self.element([n])

    def zero(self) -> "FFElement":
        return self.element([0])

    def one(self) -> "FFElement":
        return self.element([1])

    def gen(self) -> "FFElement":
        """The class of u; zero in the prime field (where m = u)."""
        return self.element([0, 1]) if self.degree > 1 else self.zero()

    def element_at(self, index: int) -> "FFElement":
        digits = []
        for _ in range(self.degree):
            index, r = divmod(index, self.p)
            digits.append(r)
        return FFElement(self, tuple(digits))

    def elements(self):
        for i in range(self.order):
            yield self.element_at(i)

    def nonzero_elements(self):
        for x in self.elements():
            if x:
                yield x

    def contains(self, x) -> bool:
        return isinstance(x, FFElement) and x.field == self

    def coerce(self, x) -> "FFElement":
        if isinstance(x, FFElement):
            if x.field != self:
                raise ContextMismatch(f"{x!r} lies in {x.field!r}, not {self!r}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise ContextMismatch(f"cannot interpret {x!r} in {self!r}")

    def sqrt(self, x: "FFElement") -> "FFElement | None":
        """The square root of x of least index, or None for a nonsquare:
        Euler's test, then Tonelli-Shanks, O(log q) field operations."""
        if not x:
            return x
        one = self.one()
        if x ** ((self.order - 1) // 2) != one:
            return None
        s, t = 0, self.order - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        c = _canonical_nonsquare(self) ** t
        r, u = x ** ((t + 1) // 2), x ** t    # invariant r^2 == u * x
        while u != one:
            i = next(i for i in range(1, s) if u ** (2 ** i) == one)
            b = c ** (2 ** (s - i - 1))
            r, c, u, s = r * b, b * b, u * b * b, i
        r = min(r, -r, key=lambda e: e.coeffs[::-1])    # index order
        if r * r != x:
            raise InvariantViolated(f"Tonelli-Shanks root {r} of {x} fails")
        return r

    def __eq__(self, other):
        return (isinstance(other, FF) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        m = " + ".join(_int_poly_terms(self.modulus, self.var))
        return f"GF({self.p})[{self.var}]/({m})"


def _int_poly_terms(coeffs, var):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{k}" if c == 1 else f"{c}*{var}^{k}")
    return terms or ["0"]


class FFElement:
    """Element of a finite field, stored as a reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FF, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _other(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field and other.field != self.field:
                raise ContextMismatch("finite field contexts differ")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p
                                           for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p
                                           for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.degree == 1:
            return FFElement(f, (self.coeffs[0] * o.coeffs[0] % f.p,))
        prod = _ip_mod(_ip_mul(_ip_trim(list(self.coeffs)),
                               _ip_trim(list(o.coeffs)), f.p), f.modulus, f.p)
        return f.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "FFElement":
        if not self:
            raise DivisionByZero("inverse of zero in finite field")
        f = self.field
        if f.degree == 1:
            return FFElement(f, (pow(self.coeffs[0], -1, f.p),))
        g, s = _ip_xgcd(_ip_trim(list(self.coeffs)), f.modulus, f.p)
        if g != (1,):
            raise DivisionByZero("element not invertible (modulus reducible?)")
        return f.element(s)

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        f = self.field
        if f.degree == 1 and (e >= 0 or self.coeffs[0]):
            return FFElement(f, (pow(self.coeffs[0], e, f.p),))
        if e < 0:
            return self.inverse() ** (-e)
        out = _ip_pow_mod(_ip_trim(list(self.coeffs)), e, f.modulus, f.p)
        return f.element(out)

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return (isinstance(other, FFElement) and other.coeffs == self.coeffs
                and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def lift_int(self) -> int:
        """Integer representative in [0, p); only for prime-field elements."""
        if self.field.degree != 1:
            raise UnsupportedField("lift_int needs a prime-field element")
        return self.coeffs[0]

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        terms = _int_poly_terms(_ip_trim(list(self.coeffs)), self.field.var)
        return " + ".join(terms)


def GF(q: int, var: str = "u") -> FF:
    """Finite field of order q = p^d with the canonical modulus."""
    p, d = _split_prime_power(q)
    return FF(p, canonical_modulus(p, d), var=var, _validate=False)


def _split_prime_power(q: int) -> tuple[int, int]:
    if q > 2 and q % 2:
        if sympy.isprime(q):
            return q, 1
        # the base of the largest exponent is prime exactly for a prime power
        power = sympy.perfect_power(q)
        if power and sympy.isprime(power[0]):
            return int(power[0]), int(power[1])
    raise UnsupportedField(f"{q} is not an odd prime power")


_CANONICAL_MODULI: dict[tuple[int, int], tuple[int, ...]] = {}


def canonical_modulus(p: int, d: int) -> tuple[int, ...]:
    """First monic irreducible of degree d over F_p in index order."""
    if d == 1:
        return (0, 1)
    key = (p, d)
    if key not in _CANONICAL_MODULI:
        for index in range(p ** d):
            digits = []
            i = index
            for _ in range(d):
                i, r = divmod(i, p)
                digits.append(r)
            m = tuple(digits) + (1,)
            if gf_irred_p_rabin(list(reversed(m)), p, ZZ):
                _CANONICAL_MODULI[key] = m
                break
    return _CANONICAL_MODULI[key]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class PolyRing:
    """Univariate polynomial ring over a field context.  ``level`` is 0 over
    Q and 1 over Q(t), whose polynomials compute on rows of Z[x] and
    Z[t][x], and None otherwise; ``gf_p`` is p over a prime field F_p,
    whose polynomials compute on galoistools' int rows, and None otherwise."""

    def __init__(self, field, var: str):
        self.field = field
        self.var = var
        self.level = (0 if isinstance(field, RationalField) else
                      1 if isinstance(field, FunctionField) and field.level == 0
                      else None)
        self.gf_p = field.p if isinstance(field, FF) and field.degree == 1 else None

    def poly(self, coeffs) -> "Poly":
        cs = [self.field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(self, tuple(cs))

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.poly([1])

    def gen(self) -> "Poly":
        return self.poly([0, 1])

    def from_int(self, n: int) -> "Poly":
        return self.poly([n])

    def contains(self, x) -> bool:
        return isinstance(x, Poly) and x.ring == self

    def coerce(self, x) -> "Poly":
        if isinstance(x, Poly):
            if x.ring != self:
                raise ContextMismatch("polynomial rings differ")
            return x
        return self.poly([x])

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.var == self.var)

    def __hash__(self):
        return hash((self.field, self.var))

    def __repr__(self):
        return f"{self.field!r}[{self.var}]"


class Poly:
    """Dense univariate polynomial; coefficients stored lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.field.one()

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ring.field.one()

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == self.ring.field.one():
            return self
        inv = self.ring.field.one() / lead
        return Poly(self.ring, tuple(c * inv for c in self.coeffs))

    def _other(self, other):
        if isinstance(other, Poly) and other.ring == self.ring:
            return other
        try:
            return self.ring.poly([other])
        except ContextMismatch:
            return None

    def _promote_into(self, other):
        ctx = None
        if isinstance(other, RatFunc):
            ctx = other.field
        elif isinstance(other, Poly):
            ctx = other.ring
        if ctx is None:
            return None
        try:
            return ctx.coerce(self)
        except ContextMismatch:
            return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p + other
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = [x + y for x, y in zip(a, b)]
        cs.extend(a[len(b):])
        while cs and not cs[-1]:
            cs.pop()
        return Poly(self.ring, tuple(cs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p * other
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return self.ring.zero()
        u = self.ring.level
        if u is not None:
            (ra, la), (rb, lb) = _poly_rows(a, u), _poly_rows(b, u)
            return _row_poly(self.ring, dmp_mul(ra, rb, u, ZZ),
                             dup_mul(la, lb, ZZ) if u else la * lb, u)
        p = self.ring.gf_p
        if p is not None:
            return _gf_poly(self.ring, gf_mul(_gf_row(a), _gf_row(b), p, ZZ))
        zero = self.ring.field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        while out and not out[-1]:
            out.pop()
        return Poly(self.ring, tuple(out))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = self.ring.field.coerce(c)
        cs = [a * c for a in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(self.ring, tuple(cs))

    def __divmod__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not o.coeffs:
            raise DivisionByZero("polynomial division by zero")
        p = self.ring.gf_p
        if p is not None:
            q, r = gf_div(_gf_row(self.coeffs), _gf_row(o.coeffs), p, ZZ)
            return _gf_poly(self.ring, q), _gf_poly(self.ring, r)
        inv_lead = self.ring.field.one() / o.coeffs[-1]
        rem = list(self.coeffs)
        zero = self.ring.field.zero()
        quo = [zero] * max(len(rem) - len(o.coeffs) + 1, 0)
        while len(rem) >= len(o.coeffs):
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - len(o.coeffs)
            c = rem[-1] * inv_lead
            quo[k] = c
            for j, bj in enumerate(o.coeffs):
                rem[k + j] = rem[k + j] - c * bj
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        return Poly(self.ring, tuple(quo)), Poly(self.ring, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return other.ring == self.ring and other.coeffs == self.coeffs
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __call__(self, x0):
        """Evaluate by Horner's rule at any value with compatible arithmetic."""
        if not self.coeffs:
            return x0 * 0
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x0 + c
        return acc

    def derivative(self) -> "Poly":
        cs = [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(self.ring, tuple(cs))

    def subs_neg(self) -> "Poly":
        """The polynomial p(-X)."""
        return Poly(self.ring, tuple(-c if k % 2 else c
                                     for k, c in enumerate(self.coeffs)))

    def __repr__(self):
        return str(self)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = str(c)
            if k == 0:
                terms.append(_paren(cs))
                continue
            xs = self.ring.var if k == 1 else f"{self.ring.var}^{k}"
            if cs == "1":
                terms.append(xs)
            elif cs == "-1":
                terms.append(f"-{xs}")
            else:
                terms.append(f"{_paren(cs)}*{xs}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _paren(s: str) -> str:
    if any(op in s for op in (" ", "+", "/")) or ("-" in s[1:]):
        return f"({s})"
    return s


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is an error.

    Over Q and Q(t) denominators are cleared and sympy takes the gcd over
    the integers (``_row_gcd``: heuristic gcd, with a pseudo-remainder
    fallback); over a prime field it is galoistools' ``gf_gcd`` on int rows,
    F_{p^k}[x] runs Euclid and F_q(t)[x] runs ``_tower_gcd``.  ``RatFunc``
    over Q and Q(t) reduces its rows with the integer gcd's cofactors.
    """
    if not f and not g:
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    if not g:
        return f.monic()
    if not f:
        return g.monic()
    if f.ring.level is not None:
        return _row_gcd(f, g, f.ring.level)
    if isinstance(f.ring.field, FunctionField):
        return _tower_gcd(f, g)
    p = f.ring.gf_p
    if p is not None:
        return _gf_poly(f.ring, gf_gcd(_gf_row(f.coeffs), _gf_row(g.coeffs), p, ZZ))
    a, b = f, g
    while b:
        a, b = b, a % b
    return a.monic()


def _gf_row(coeffs) -> list[int]:
    """Prime-field coefficients (lowest degree first) as a galoistools int
    row, highest degree first."""
    return [c.coeffs[0] for c in reversed(coeffs)]


def _gf_poly(ring: PolyRing, row: list[int]) -> Poly:
    """The polynomial of a stripped galoistools row over ring's prime field."""
    field = ring.field
    return Poly(ring, tuple(FFElement(field, (c,)) for c in reversed(row)))


# Rows over Q and Q(t).  A polynomial over Q is a row of Z[x] over an integer
# and one over Q(t) rows of Z[t][x] over an element of Z[t], both in sympy's
# dense form (highest degree first, x outer); the level u is 0 or 1, the
# number of variables below x (``PolyRing.level``).
_ZERO = ([], [[]])      # the zero and one of Z[x] and Z[t][x], by level
_ONE = ([1], [[1]])


def _tower_rows(coeffs) -> tuple[list[list[int]], list[int]]:
    """(rows, L) with the polynomial over Q(t) of these coefficients equal
    to rows / L, L in Z[t] the lcm of the coefficients' denominators, read
    from their reduced rows (so L / den is exact, and L has a positive
    leading integer)."""
    lcm = [1]
    for c in coeffs:
        den = c.rows[1]
        if den != lcm and den != [1]:
            lcm = (den if lcm == [1]
                   else dup_mul(lcm, dup_inner_gcd(lcm, den, ZZ)[2], ZZ))
    return [n if den == lcm else
            dup_mul(n, lcm if den == [1] else dup_exquo(lcm, den, ZZ), ZZ)
            for n, den in (c.rows for c in reversed(coeffs))], lcm


def _poly_rows(coeffs, u: int):
    """(rows, L) with the polynomial of these coefficients (lowest degree
    first) equal to rows / L at level u, L the lcm of their denominators in
    Z or Z[t].  Each coefficient is reduced, so no prime of Z or Z[t]
    divides both L and every row: a prime whose full power in L divides the
    denominator of a coefficient c divides c's numerator, and so c's row,
    not at all."""
    if not coeffs:
        return _ZERO[u], _ONE[u][0]
    if u:
        return _tower_rows(coeffs)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in reversed(coeffs)], lcm


def _row_poly(ring: PolyRing, rows, lead, u: int) -> Poly:
    """The polynomial over Q or Q(t) of rows / lead at level u, lead != 0
    in Z or Z[t]: one canonical coefficient each."""
    if u == 0:
        return Poly(ring, tuple(Fraction(c, lead) for c in reversed(rows)))
    kt = ring.field
    return Poly(ring, tuple(RatFunc(kt, _rows=(c, lead)) for c in reversed(rows)))


def _row_gcd(f: Poly, g: Poly, u: int) -> Poly:
    """Monic gcd of nonzero polynomials over Q or Q(t), taken over Z or
    Z[t] by sympy.  Both inputs are scaled by nonzero constants into Z[x]
    or Z[t][x], so by Gauss's lemma their gcd there is the gcd over the
    field up to a unit."""
    h = dmp_inner_gcd(_poly_rows(f.coeffs, u)[0], _poly_rows(g.coeffs, u)[0],
                      u, ZZ)[0]
    return _row_poly(f.ring, h, h[0], u)


def _quotient_rows(num: Poly, den: Poly, u: int):
    """Rows (N, D) at level u with N / D = num / den, not yet reduced: each
    side's rows times the other side's L."""
    if not num:
        return _ZERO[u], _ONE[u]
    rn, ln = _poly_rows(num.coeffs, u)
    rd, ld = _poly_rows(den.coeffs, u)
    return dmp_mul(rn, [ld], u, ZZ), dmp_mul(rd, [ln], u, ZZ)


def _reduced_rows(n, d, u: int):
    """The canonical form of n / d at level u, for n, d != 0 in Z[x] or
    Z[t][x]: the cofactors of their gcd, with the leading integer of the
    denominator made positive.  Z[x] and Z[t][x] are UFDs, so a reduced
    fraction there is unique up to sign and this is a normal form."""
    if n == _ZERO[u]:
        return n, _ONE[u]
    if d != _ONE[u]:
        _, n, d = dmp_inner_gcd(n, d, u, ZZ)
        if dmp_ground_LC(d, u, ZZ) < 0:
            n, d = dmp_neg(n, u, ZZ), dmp_neg(d, u, ZZ)
    return n, d


def _row_polys(ring: PolyRing, n, d, u: int) -> tuple[Poly, Poly]:
    """Canonical (num, den) of reduced rows n / d at level u: both over the
    lead of d, so den is monic."""
    if n == _ZERO[u]:
        return ring.zero(), ring.one()
    return _row_poly(ring, n, d[0], u), _row_poly(ring, d, d[0], u)


def _tower_gcd(f: Poly, g: Poly) -> Poly:
    """gcd of nonzero polynomials over F_q(t).

    It serves positive characteristic only: sympy has no F_{p^k}, and
    Q(t)[x] goes through ``_row_gcd``.

    Plain Euclid explodes here (each division step roughly squares the
    coefficient sizes), so clear denominators and run a primitive
    pseudo-remainder sequence over k[t], stripping content at every step.
    """
    F = _clear_primitive(f)
    G = _clear_primitive(g)
    if len(F) < len(G):
        F, G = G, F
    while True:
        R = _prem(F, G)
        if not R:
            break
        F, G = G, _primitive(R)
        if len(G) == 1:
            break
    if len(G) == 1:
        return f.ring.one()
    result = f.ring.poly([f.ring.field.from_poly(c) for c in G])
    return result.monic()


def _clear_primitive(f: Poly):
    """Coefficient list over k[t] of a nonzero f with denominators cleared
    and content removed."""
    kt = f.ring.field.ring
    lcm = kt.one()
    for c in f.coeffs:
        if c:
            g = poly_gcd(lcm, c.den)
            lcm = lcm * (c.den // g)
    coeffs = [(c.num * (lcm // c.den)) if c else kt.zero() for c in f.coeffs]
    return _primitive(coeffs)


def _primitive(coeffs):
    """Divide a k[t]-coefficient list by the gcd of its entries (made monic)."""
    content = None
    for c in coeffs:
        if c:
            content = c if content is None else poly_gcd(content, c)
            if content.degree() == 0:
                content = None
                break
    if content is not None and content.degree() > 0:
        coeffs = [c // content if c else c for c in coeffs]
    # normalize the leading coefficient to be monic for determinism
    lead = coeffs[-1]
    if lead and not lead.is_monic():
        inv = lead.ring.field.one() / lead.leading()
        coeffs = [c.scale(inv) if c else c for c in coeffs]
    return coeffs


def _prem(F, G):
    """Pseudo-remainder of coefficient lists over k[t] (lowest degree first)."""
    dF, dG = len(F) - 1, len(G) - 1
    if dF < dG:
        return list(F)
    lcG = G[-1]
    R = list(F)
    for _ in range(dF - dG + 1):
        if len(R) < len(G):
            break
        lcR = R[-1]
        R = [c * lcG for c in R[:-1]]
        if lcR:
            for j in range(dG):
                R[len(R) - dG + j] = R[len(R) - dG + j] - lcR * G[j]
        while R and not R[-1]:
            R.pop()
    return R


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class FunctionField:
    """Field of rational functions over a coefficient field context."""

    def __init__(self, field, var: str):
        self.ring = PolyRing(field, var)
        self.var = var
        self.level = self.ring.level    # 0 for Q(t), 1 for Q(t)(x); see RatFunc

    @property
    def coefficient_field(self):
        return self.ring.field

    @property
    def characteristic(self):
        return self.ring.field.characteristic

    def from_poly(self, num: Poly) -> "RatFunc":
        if self.level is None:
            return RatFunc(self, num, self.ring.one(), _reduced=True)
        # no gcd: rows / L is reduced (see _poly_rows), with lc(L) > 0
        rows, lcm = _poly_rows(num.coeffs, self.level)
        x = RatFunc(self, _rows=(rows, [lcm]), _reduced=True)
        x._num, x._den = num, self.ring.one()
        return x

    def ratfunc(self, num, den) -> "RatFunc":
        return RatFunc(self, self.ring.coerce(num), self.ring.coerce(den))

    def zero(self) -> "RatFunc":
        return self.from_poly(self.ring.zero())

    def one(self) -> "RatFunc":
        return self.from_poly(self.ring.one())

    def gen(self) -> "RatFunc":
        return self.from_poly(self.ring.gen())

    def from_int(self, n: int) -> "RatFunc":
        return self.from_poly(self.ring.from_int(n))

    def contains(self, x) -> bool:
        return isinstance(x, RatFunc) and x.field == self

    def coerce(self, x) -> "RatFunc":
        if isinstance(x, RatFunc) and x.field == self:
            return x
        if isinstance(x, Poly) and x.ring == self.ring:
            return self.from_poly(x)
        # fall through: element of the coefficient field (or coercible there)
        return self.from_poly(self.ring.poly([x]))

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.ring == self.ring

    def __hash__(self):
        return hash(("ff", self.ring))

    def __repr__(self):
        return f"{self.ring.field!r}({self.var})"


class RatFunc:
    """Rational function in canonical form: gcd(num, den) = 1, den monic.

    The canonical form is a normal form: two constructions of the same
    function produce identical representations.  There are two stored forms.

    In characteristic 0, over Q(x) or Q(t) (level 0) and Q(t)(x) (level 1,
    ``FunctionField.level``), it is ``rows``: reduced rows (N, D) of Z[x] or
    Z[t][x] in sympy's dense form, x outer (``_reduced_rows``: gcd 1 and
    the leading integer of D positive).  Arithmetic runs on them, one
    ``dmp_mul`` or ``dmp_add`` and one ``dmp_inner_gcd`` in ``__init__``,
    and num and den are built from them on first use.

    Over F_q and F_q(t) it is the Polys num and den, reduced by ``poly_gcd``
    and ``//``, and ``rows`` is None.
    """

    __slots__ = ("field", "rows", "_num", "_den")

    def __init__(self, field: FunctionField, num: Poly | None = None,
                 den: Poly | None = None, _reduced: bool = False, _rows=None):
        if _rows is None and not den:
            raise DivisionByZero("rational function with zero denominator")
        self.field = field
        u = field.level
        if u is not None:
            # Polys are always converted and reduced; _reduced vouches only
            # for rows that are already canonical
            if _rows is None:
                _rows, _reduced = _quotient_rows(num, den, u), False
            self.rows = _rows if _reduced else _reduced_rows(*_rows, u)
            self._num = self._den = None
            return
        if not _reduced and not den.is_one():
            if not num:
                den = field.ring.one()
            else:
                if den.degree() > 0 and num.degree() > 0:
                    g = poly_gcd(num, den)
                    if g.degree() > 0:
                        num = num // g
                        den = den // g
                lead = den.leading()
                if lead != field.ring.field.one():
                    inv = field.ring.field.one() / lead
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.rows = None
        self._num = num
        self._den = den

    @property
    def num(self) -> Poly:
        if self._num is None:
            self._num, self._den = _row_polys(self.field.ring, *self.rows,
                                              self.field.level)
        return self._num

    @property
    def den(self) -> Poly:
        if self._den is None:
            self._num, self._den = _row_polys(self.field.ring, *self.rows,
                                              self.field.level)
        return self._den

    def _other(self, other):
        if isinstance(other, RatFunc) and other.field == self.field:
            return other
        if isinstance(other, Poly) and other.ring == self.field.ring:
            return self.field.from_poly(other)
        try:
            return self.field.from_poly(self.field.ring.poly([other]))
        except ContextMismatch:
            return None

    def _promote_into(self, other):
        """View self as an element of other's (larger) context, if possible.

        Needed because Python never consults reflected operators when both
        operands share a type, which happens across nested function fields."""
        ctx = None
        if isinstance(other, RatFunc):
            ctx = other.field
        elif isinstance(other, Poly):
            ctx = other.ring
        if ctx is None:
            return None
        try:
            return ctx.coerce(self)
        except ContextMismatch:
            return None

    def is_polynomial(self) -> bool:
        if self.rows is not None:
            return len(self.rows[1]) == 1
        return self.den.is_one()

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p + other
        if self.rows is not None:
            (n1, d1), (n2, d2), u = self.rows, o.rows, self.field.level
            if d1 == d2:
                return RatFunc(self.field, _rows=(dmp_add(n1, n2, u, ZZ), d1))
            return RatFunc(self.field, _rows=(
                dmp_add(dmp_mul(n1, d2, u, ZZ), dmp_mul(n2, d1, u, ZZ), u, ZZ),
                dmp_mul(d1, d2, u, ZZ)))
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.field, self.num + o.num, self.den, _reduced=True)
        return RatFunc(self.field, self.num * o.den + o.num * self.den,
                       self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self.rows is not None:
            n, d = self.rows
            return RatFunc(self.field, _rows=(dmp_neg(n, self.field.level, ZZ),
                                              d), _reduced=True)
        return RatFunc(self.field, -self.num, self.den, _reduced=True)

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p * other
        if self.rows is not None:
            (n1, d1), (n2, d2), u = self.rows, o.rows, self.field.level
            return RatFunc(self.field, _rows=(dmp_mul(n1, n2, u, ZZ),
                                              dmp_mul(d1, d2, u, ZZ)))
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.field, self.num * o.num, self.den, _reduced=True)
        return RatFunc(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            p = self._promote_into(other)
            return NotImplemented if p is None else p / other
        if not o:
            raise DivisionByZero("division by the zero rational function")
        if self.rows is not None:
            (n1, d1), (n2, d2), u = self.rows, o.rows, self.field.level
            return RatFunc(self.field, _rows=(dmp_mul(n1, d2, u, ZZ),
                                              dmp_mul(d1, n2, u, ZZ)))
        return RatFunc(self.field, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o / self

    def _constant(self):
        """The coefficient c when self is a nonzero constant of the
        coefficient field (a canonical constant has den 1), else None."""
        if len(self.num.coeffs) == 1 and self.den.is_one():
            return self.num.coeffs[0]
        return None

    def inverse(self) -> "RatFunc":
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.rows is not None:
            n, d = self.rows
            return RatFunc(self.field, _rows=(d, n))
        c = self._constant()
        if c is not None:
            return self.field.from_poly(self.field.ring.poly([1 / c]))
        return RatFunc(self.field, self.den, self.num)

    def __pow__(self, e: int):
        if self.rows is not None and e >= 0:
            (n, d), u = self.rows, self.field.level
            return RatFunc(self.field, _rows=(dmp_pow(n, e, u, ZZ),
                                              dmp_pow(d, e, u, ZZ)),
                           _reduced=True)
        c = self._constant() if self.rows is None else None
        if c is not None:
            return self.field.from_poly(self.field.ring.poly([c ** e]))
        if e < 0:
            return self.inverse() ** (-e)
        return RatFunc(self.field, self.num ** e, self.den ** e, _reduced=True)

    def __bool__(self):
        if self.rows is not None:
            return self.rows[0] != _ZERO[self.field.level]
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                return False
            if self.rows is not None:
                return other.rows == self.rows
            return other.num == self.num and other.den == self.den
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self == o

    def __hash__(self):
        if self.rows is not None:
            u = self.field.level
            return hash((self.field, *(dmp_to_tuple(r, u) for r in self.rows)))
        return hash((self.field, self.num, self.den))

    def __call__(self, x0):
        """Substitute x0 (any compatible value) for the variable."""
        num = self.num(x0)
        den = self.den(x0)
        if isinstance(num, Poly) or isinstance(den, Poly):
            raise ContextMismatch("substitute a value, not a bare polynomial")
        return num / den

    def degree(self) -> int:
        """max(deg num, deg den); the degree of the map P^1 -> P^1."""
        if self.rows is not None:
            return max(map(len, self.rows)) - 1
        return max(self.num.degree(), self.den.degree())

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


# ---------------------------------------------------------------------------
# context inference, and the four operations exported for library callers
# ---------------------------------------------------------------------------


def infer_context(x):
    if isinstance(x, (Fraction, int)):
        return QQ
    if isinstance(x, FFElement):
        return x.field
    if isinstance(x, RatFunc):
        return x.field
    if isinstance(x, Poly):
        return x.ring
    raise ContextMismatch(f"no field context for {x!r}")


def field_arith(a, b, op: str):
    """Apply one of add/sub/mul/div with explicit context checking."""
    ca, cb = infer_context(a), infer_context(b)
    if ca != cb and not isinstance(a, int) and not isinstance(b, int):
        raise ContextMismatch(f"operands live in {ca!r} and {cb!r}")
    ctx = ca if not isinstance(a, int) else cb
    a, b = ctx.coerce(a), ctx.coerce(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise DivisionByZero("division by zero")
        return a / b
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# squares and square classes
# ---------------------------------------------------------------------------


def is_square(x, ctx=None):
    """Decide x in K*^2; returns (flag, root) with root None when not a square.

    Supported K: the rationals, finite fields, and rational function fields
    over either (squareness there reduces to squarefree decomposition plus a
    constant square test, so no factorization is needed).  Over F_q it is
    ``FF.sqrt``: Euler's test, then the Tonelli-Shanks root of least index.
    """
    if ctx is None:
        ctx = infer_context(x)
    x = ctx.coerce(x)
    if not x:
        raise ZeroInput("squareness of zero is not defined here")
    if isinstance(ctx, RationalField):
        if x < 0:
            return False, None
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return True, Fraction(rn, rd)
        return False, None
    if isinstance(ctx, FF):
        root = ctx.sqrt(x)
        return root is not None, root
    if isinstance(ctx, FunctionField):
        return _ratfunc_square(x)
    raise UnsupportedField(f"squareness is not decidable over {ctx!r}")


def _ratfunc_square(x: RatFunc):
    ring = x.field.ring
    cf = ring.field
    parts = []
    const = cf.one()
    for poly, inverted in ((x.num, False), (x.den, True)):
        if poly.degree() == 0:
            c = poly.coeffs[0]
            const = const / c if inverted else const * c
            continue
        lead = poly.leading()
        const = const / lead if inverted else const * lead
        for g, m in squarefree_decomposition(poly.monic())[1]:
            if m % 2 == 1:
                return False, None
            parts.append((g, -m // 2 if inverted else m // 2))
    ok, croot = is_square(const, cf)
    if not ok:
        return False, None
    root = x.field.coerce(croot)
    for g, e in parts:
        root = root * x.field.from_poly(g) ** e
    return True, root


def sqrt_exact(x, ctx=None):
    ok, root = is_square(x, ctx)
    if not ok:
        raise ZeroInput(f"{x} is not a square")
    return root


def square_class_reduce(x, ctx=None):
    """Write x = r * s^2 with r the canonical square-class representative.

    Over Q the representative is the squarefree integer with the sign of x;
    over a finite field it is 1 or the first nonsquare in index order; over
    k(t) it is the product of the odd-multiplicity squarefree parts of the
    numerator and denominator times the representative of the leftover
    constant.  Returns (r, s).
    """
    if ctx is None:
        ctx = infer_context(x)
    x = ctx.coerce(x)
    if not x:
        raise ZeroInput("square class of zero is not defined")
    if isinstance(ctx, RationalField):
        # num and den are coprime, and each is far easier to factor alone
        r = 1 if x > 0 else -1
        for n in (abs(x.numerator), x.denominator):
            for prime, e in sympy.factorint(n).items():
                if e % 2 == 1:
                    r *= int(prime)
        r = Fraction(r)
        return r, sqrt_exact(x / r, ctx)
    if isinstance(ctx, FF):
        ok, root = is_square(x, ctx)
        if ok:
            return ctx.one(), root
        c0 = _canonical_nonsquare(ctx)
        return c0, sqrt_exact(x / c0, ctx)
    if isinstance(ctx, FunctionField):
        kernel = ctx.one()
        s = ctx.one()
        for poly, inverted in ((x.num, False), (x.den, True)):
            if poly.degree() > 0:
                for g, m in squarefree_decomposition(poly.monic())[1]:
                    gf = ctx.from_poly(g)
                    if m % 2 == 1:
                        kernel = kernel * gf
                    half = m // 2
                    s = s * gf ** (-half if inverted else half)
                    if m % 2 == 1 and inverted:
                        # 1/g = g/g^2: kernel got g, compensate inside s
                        s = s / gf
        c = x / (kernel * s * s)
        if c.num.degree() != 0 or not c.den.is_one():
            raise InvariantViolated("square-class residue not constant")
        c_red, c_s = square_class_reduce(c.num.coeffs[0], ctx.coefficient_field)
        r = kernel * ctx.coerce(c_red)
        s = s * ctx.coerce(c_s)
        if r * s * s != x:
            raise InvariantViolated("square class: r * s * s != x")
        return r, s
    raise UnsupportedField(f"square classes are not supported over {ctx!r}")


def _canonical_nonsquare(ctx: FF):
    """The first nonsquare in index order, by Euler's test; cached on ctx.
    Indices below p are the constants of F_p, all squares when the degree
    of ctx is even, so the scan then starts at p."""
    if ctx._nonsquare is None:
        start = 1 if ctx.degree % 2 else ctx.p
        e, one = (ctx.order - 1) // 2, ctx.one()
        ctx._nonsquare = next(y for y in map(ctx.element_at,
                                             range(start, ctx.order))
                              if y ** e != one)
    return ctx._nonsquare


# ---------------------------------------------------------------------------
# squarefree decomposition and factorization
# ---------------------------------------------------------------------------


def squarefree_decomposition(f: Poly):
    """Yun decomposition valid in characteristic 0 and odd characteristic p.

    Returns (lead, [(g_i, m_i)]) with f = lead * prod g_i^{m_i}, the g_i monic,
    squarefree and pairwise coprime, listed with increasing multiplicity.
    """
    if not f:
        raise ZeroPolynomial("squarefree decomposition of zero")
    lead = f.leading()
    f = f.monic()
    if f.degree() == 0:
        return lead, []
    parts = _squarefree_monic(f)
    merged: dict[int, Poly] = {}
    for g, m in parts:
        merged[m] = merged[m] * g if m in merged else g
    return lead, [(g, m) for m, g in sorted(merged.items())]


def _squarefree_monic(f: Poly):
    p = f.ring.field.characteristic
    fp = f.derivative()
    if not fp:
        # f is a p-th power: take the p-th root coefficientwise
        root = _poly_pth_root(f)
        return [(g, m * p) for g, m in _squarefree_monic(root)]
    out = []
    c = poly_gcd(f, fp)
    w = f // c
    i = 1
    while w.degree() > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree() > 0:
            out.append((z, i))
        i += 1
        w = y
        c = c // y
    if c.degree() > 0:
        root = _poly_pth_root(c)
        out.extend((g, m * p) for g, m in _squarefree_monic(root))
    return out


def _poly_pth_root(f: Poly) -> Poly:
    """p-th root of a polynomial of the form g(X)^p = h(X^p) in char p."""
    p = f.ring.field.characteristic
    if p == 0:
        raise ZeroPolynomial("polynomial with zero derivative in char 0?")
    coeffs = []
    for k in range(0, f.degree() + 1, p):
        c = f.coeffs[k]
        coeffs.append(_ff_pth_root(c))
    for k in range(len(f.coeffs)):
        if k % p and f.coeffs[k]:
            raise ZeroPolynomial("polynomial is not a p-th power")
    return f.ring.poly(coeffs)


def _ff_pth_root(c):
    if isinstance(c, FFElement):
        d = c.field.degree
        return c ** (c.field.p ** (d - 1)) if d > 1 else c
    raise UnsupportedField("p-th roots only implemented over finite fields")


def is_irreducible(f: Poly) -> bool:
    """Whether f is irreducible: over F_q by distinct-degree factorisation
    (``_is_irreducible_ff``), over Q by factoring (degree <= 8)."""
    if not f:
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    field = f.ring.field
    if isinstance(field, FF):
        return _is_irreducible_ff(f)
    if isinstance(field, RationalField):
        if f.degree() < 1:
            return False
        _, facs = factor(f)
        return len(facs) == 1 and facs[0][1] == 1
    raise UnsupportedField(f"irreducibility not supported over {field!r}")


def _is_irreducible_ff(f: Poly) -> bool:
    """Irreducibility over F_q: a reducible f of degree n has an irreducible
    factor of degree <= n/2, which the distinct-degree factorisation meets
    first, so it is stopped at its first factor (repeated factors included,
    because gcd(x^(q^d) - x, f) holds every irreducible factor of degree d)."""
    n = f.degree()
    return n > 0 and next(_ddf(f.monic()))[0] == n


def _poly_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    result = base.ring.one()
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def factor(f: Poly):
    """Factor into monic irreducibles: returns (lead, [(g_i, m_i)]).

    Over a finite field F_q of any order each squarefree part is split by
    distinct-degree and then equal-degree factorisation, in time polynomial
    in deg f and log q; the factors are sorted by degree and index, so the
    seeded random draws of the equal-degree split never show.  Over Q the
    computation is delegated to sympy and restricted to degree <= 8, which
    covers the square-class normalizations this package needs.
    """
    if not f:
        raise ZeroPolynomial("factorization of the zero polynomial")
    field = f.ring.field
    if isinstance(field, FF):
        return _factor_ff(f)
    if isinstance(field, RationalField):
        return _factor_rational(f)
    raise UnsupportedField(f"factorization not supported over {field!r}")


def _factor_ff(f: Poly):
    lead = f.leading()
    f = f.monic()
    out: dict[Poly, int] = {}
    _, parts = squarefree_decomposition(f)
    for g, m in parts:
        for h in _factor_ff_squarefree(g):
            out[h] = out.get(h, 0) + m
    facs = sorted(out.items(), key=lambda it: (it[0].degree(), _poly_index(it[0])))
    return lead, facs


def _poly_index(g: Poly):
    field = g.ring.field
    idx = []
    for c in g.coeffs:
        if isinstance(c, FFElement):
            v = 0
            for a in reversed(c.coeffs):
                v = v * c.field.p + a
            idx.append(v)
        else:
            idx.append(c)
    return tuple(idx)


def _factor_ff_squarefree(g: Poly) -> list[Poly]:
    """Irreducible factors of a monic squarefree polynomial over F_q, by
    distinct-degree and then equal-degree factorisation (Cantor and
    Zassenhaus, Math. Comp. 36, 1981); the random draws are seeded, and
    ``_factor_ff`` sorts the factors."""
    rng = random.Random(0)
    return [h for d, gd in _ddf(g) for h in _edf(gd, d, rng)]


def _ddf(g: Poly):
    """Distinct-degree factorisation of a monic squarefree g over F_q: yields
    (d, g_d) for increasing d, g_d the product of the irreducible factors of
    degree d, for each d that has one.  x^(q^d) mod g comes from the previous
    power by one more Frobenius, x^(q^d) = (x^(q^(d-1)))^q."""
    q = g.ring.field.order
    x = g.ring.gen()
    h = x
    d = 0
    while g.degree() >= 2 * (d + 1):
        d += 1
        h = _poly_pow_mod(h, q, g)
        gd = poly_gcd(h - x, g)
        if gd.degree() > 0:
            yield d, gd
            g = g // gd
    if g.degree() > 0:
        yield g.degree(), g


def _edf(g: Poly, d: int, rng: random.Random) -> list[Poly]:
    """The irreducible factors of g, a monic product of distinct irreducibles
    of degree d over F_q (q odd): for a random h, gcd(g, h^((q^d-1)/2) - 1)
    is a proper factor with probability about 1/2."""
    if g.degree() == d:
        return [g]
    field = g.ring.field
    e = (field.order ** d - 1) // 2
    while True:
        h = g.ring.poly([field.element_at(rng.randrange(field.order))
                         for _ in range(g.degree())])
        f = poly_gcd(_poly_pow_mod(h, e, g) - 1, g)
        if 0 < f.degree() < g.degree():
            return _edf(f, d, rng) + _edf(g // f, d, rng)


def _factor_rational(f: Poly):
    if f.degree() > 8:
        raise DegreeTooLarge(
            f"factorization over Q limited to degree 8 (got {f.degree()})")
    lead = f.leading()
    if f.degree() == 0:
        return lead, []
    x = sympy.Symbol(f.ring.var)
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(f.coeffs))
    const, facs = sympy.factor_list(expr)
    out = []
    total = Fraction(const.p, const.q)
    for poly, mult in facs:
        coeffs = [Fraction(c.p, c.q) for c in
                  reversed(sympy.Poly(poly, x).all_coeffs())]
        g = f.ring.poly(coeffs)
        total *= Fraction(g.leading()) ** mult
        out.append((g.monic(), mult))
    out.sort(key=lambda it: (it[0].degree(), it[0].coeffs))
    if total != lead:
        raise InvariantViolated("factors over Q do not give the leading coefficient")
    return lead, out


# ---------------------------------------------------------------------------
# flattening of finite-field quotients F_q[t]/(pi) to the F_p[u]/(m) shape
# ---------------------------------------------------------------------------


class FlatQuotient:
    """Isomorphism between F_q[t]/(pi) and its flat presentation F_p[u]/(m).

    ``to_flat`` maps a polynomial over F_q; ``from_flat`` returns one of
    degree < deg(pi).  The generator theta is the first t + c, c in F_q in
    index order, whose powers span everything.  One elimination modulo p
    reduces the F_p-vectors of 1, theta, theta^2, ... and records with each
    echelon row the combination of powers it stands for: the first
    dependency is m, and the same rows give r's coordinates on the powers.
    """

    def __init__(self, base: FF, modulus: Poly):
        if modulus.ring.field != base:
            raise ContextMismatch("modulus is not over the base field")
        if not _is_irreducible_ff(modulus):
            raise UnsupportedField(f"{modulus} is reducible over {base!r}")
        self.base = base
        self.modulus = modulus.monic()
        self.e = modulus.degree()
        self.n = base.degree * self.e
        self.p = base.p
        self._choose_generator()

    def _vec(self, r: Poly) -> list[int]:
        out = []
        for k in range(self.e):
            c = r.coeffs[k] if k <= r.degree() else self.base.zero()
            out.extend(c.coeffs)
        return out

    def _choose_generator(self):
        # theta + c for c in F_q in index order, theta the class of t (c = 0
        # first).  A theta + c that does not generate F = F_q(theta) over F_p
        # lies in a maximal subfield S of F with F_q not in S, as otherwise
        # theta in S and F_q(theta) in S.  The c that put theta + c in S form
        # a coset of the field S and F_q share, a proper subfield of F_q, so
        # at most sqrt(q) of them; F has omega(n) maximal subfields, with
        # n = [F : F_p] and omega(n) the number of distinct primes dividing
        # n.  So the loop runs out only when omega(n) >= sqrt(q).
        theta = self.modulus.ring.gen() % self.modulus
        for c in self.base.elements():
            if self._eliminate(theta + c):
                return
        raise UnsupportedField(f"no t + c generates the residue field of "
                               f"{self.modulus} over F_{self.p}")

    def _reduce(self, vec: list[int], combo: list[int]):
        p = self.p
        for pivot, rvec, rcombo in self._rows:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, rvec)]
                combo = [(a - c * b) % p for a, b in zip(combo, rcombo)]
        return vec, combo

    def _eliminate(self, theta: Poly) -> bool:
        """Reduce the vectors of theta^0, theta^1, ... until one depends on
        the earlier ones; True, with the generator set up, if that happens
        only at theta^n."""
        self._rows, self._powers = [], []
        power = self.modulus.ring.one()
        for k in range(self.n + 1):
            combo = [0] * (self.n + 1)
            combo[k] = 1
            vec, combo = self._reduce(self._vec(power), combo)
            pivot = next((i for i, v in enumerate(vec) if v), None)
            if pivot is None:
                if k < self.n:
                    return False
                # dependency sum combo_k theta^k = 0 with combo_n = 1
                self.theta = theta
                self.flat = FF(self.p, tuple(combo), _validate=False)
                return True
            inv = pow(vec[pivot], -1, self.p)
            self._rows.append((pivot, [(v * inv) % self.p for v in vec],
                               [(v * inv) % self.p for v in combo]))
            self._powers.append(power)
            power = (power * theta) % self.modulus

    def to_flat(self, r: Poly) -> FFElement:
        # the n rows span everything, so r reduces to 0 and -combo are the
        # coordinates of r on the powers of theta
        _, combo = self._reduce(self._vec(r % self.modulus), [0] * self.n)
        return self.flat.element([-c for c in combo])

    def from_flat(self, x: FFElement) -> Poly:
        if x.field != self.flat:
            raise ContextMismatch("element is not in the flat presentation")
        acc = self.modulus.ring.zero()
        for c, pw in zip(x.coeffs, self._powers):
            if c:
                acc = acc + pw.scale(self.base.from_int(c))
        return acc


def quadratic_extension_field(kappa: FF, ubar: FFElement) -> FF:
    """The field kappa(sqrt(ubar)) in flat form, for ubar a nonsquare."""
    if is_square(ubar, kappa)[0]:
        raise SquareInput("element is already a square")
    if kappa.degree == 1:
        m = ((-ubar.coeffs[0]) % kappa.p, 0, 1)
        return FF(kappa.p, m, _validate=False)
    ring = PolyRing(kappa, "t")
    flat = FlatQuotient(kappa, ring.poly([-ubar, kappa.zero(), kappa.one()]))
    return flat.flat
