"""Exact arithmetic for all coefficient domains.

Four element kinds are supported:

* arbitrary-precision rationals (plain ``fractions.Fraction`` values),
* elements of odd-characteristic finite fields F_p[u]/(m(u)),
* dense univariate polynomials over any supported field,
* rational functions in canonical form (coprime, normalised denominator).

Field contexts (``QQ``, ``FF``, ``FunctionField``) carry construction helpers
and make mixed-context mistakes detectable.  Everything is immutable and all
operations are pure, so values can be shared freely across threads.

Finite fields are always presented as F_p[u]/(m); the prime field is the
degree-1 case with m = u, so residue-field code has a single representation
to deal with.

A rational function in Q(t), Q(x) or F_q(t) (level 0) or in Q(t)(x) or
F_q(t)(x) (level 1) is stored as its reduced rows (N, D) of Z[x], Z[t][x],
F_q[t] or F_q[t][x], on which its arithmetic runs; a row kernel per ring
(``PolyRing.kernel``) hides the row format.  Polynomials exist over Q, F_q,
Q(t) and F_q(t) only, and their products, gcds and squarefree
decompositions (``_squarefree_rows``) run on the same rows; ``Poly``
division is the generic long division over the coefficient field.  Square
classes over k(t) and k(t)(x) read one split x = k*s^2*c (``_square_split``)
off the rows of x.

Over every finite field F_q, polynomials factor on F_q[t] rows
(``_FqRows``) from start to end: Musser's squarefree loop, one
distinct-degree routine (``_ddf``, iterated Frobenius x^(q^d) mod g) and a
seeded equal-degree split (``_edf``), in time polynomial in the degree and
log q; irreducibility is ``_ddf`` stopped at its first factor, and the
modulus m of F_p[u]/(m) is checked by that test too.

Importing this module does not import sympy, and neither does arithmetic
over Q, Q(t) and Q(t)(x) as long as the Z[t][x] gcds it meets have an
operand constant in x.  Primality, prime powers and the factoring of
integers (``FF``, ``GF``, ``square_class_reduce`` over Q) run on plain ints
in the ``integers`` module, which calls sympy only for primality from
3.3*10^24 and for cofactors of 24 digits or more.  The other functions that
need sympy import it when they are called: factoring polynomials over Q
(``factor``), the Z[t][x] gcd of two rows of positive degree in x
(``_IntRows``; their exact division is the long division of
``_Rows.exquo``), and the Z[x] gcd when six evaluation points of the
heuristic fail (``_zz_gcd``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (ContextMismatch, DegreeTooLarge, DivisionByZero,
                     InvariantViolated, UnsupportedField, ZeroInput,
                     ZeroPolynomial)
from .integers import factorint, is_prime, perfect_power

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
    field they multiply, invert and power as ints modulo p, and in F_{p^k}
    on their galoistools rows modulo m, products through the same kernel as
    F_q[t] (``kernel``, an ``_FqRows``).  ``sqrt`` gives the root of least
    ``element_at`` index by Euler's test and Tonelli-Shanks.
    """

    def __init__(self, p: int, modulus: tuple[int, ...] | None = None,
                 var: str = "u", _validate: bool = True):
        if p == 2:
            raise UnsupportedField("characteristic 2 is not supported")
        if _validate and not is_prime(p):
            raise UnsupportedField(f"{p} is not prime")
        if modulus is None:
            modulus = (0, 1)
        modulus = tuple(_strip([c % p for c in reversed(modulus)])[::-1])
        if len(modulus) < 2:
            raise UnsupportedField("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise UnsupportedField("modulus must be monic")
        if _validate and not _is_irreducible_ff(
                FF(p, _validate=False).kernel, list(modulus[::-1])):
            raise UnsupportedField(f"modulus {modulus} is reducible mod {p}")
        self.p = p
        self.modulus = modulus
        self.var = var
        self.degree = len(modulus) - 1
        self.order = p ** self.degree
        self._nonsquare = None      # cached by _canonical_nonsquare
        self.kernel = _FqRows(self)

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, coeffs) -> "FFElement":
        if self.degree == 1:    # modulo u only the constant term is left
            return FFElement(self, (coeffs[0] % self.p if coeffs else 0,))
        c = [x % self.p for x in coeffs]
        if len(c) > self.degree:
            return self.kernel.element(_gf_divmod(
                _strip(c[::-1]), self.kernel.modulus, self.p)[1])
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
        return FFElement(self, _digits(index, self.p, self.degree))

    def elements(self):
        for i in range(self.order):
            yield self.element_at(i)

    def nonzero_elements(self):
        for x in self.elements():
            if x:
                yield x

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
        return f.kernel.element(f.kernel.mul(self.coeffs[::-1], o.coeffs[::-1]))

    __rmul__ = __mul__

    def inverse(self) -> "FFElement":
        if not self:
            raise DivisionByZero("inverse of zero in finite field")
        f = self.field
        return f.kernel.element(f.kernel.inverse(self._row()))

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
        return f.kernel.element(f.kernel.pow(self._row(), e))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def _row(self) -> list[int]:
        """The galoistools row over F_p (highest degree first, stripped)."""
        return _strip(list(self.coeffs[::-1]))

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
        terms = _int_poly_terms(self.coeffs, self.field.var)
        return " + ".join(terms)


def GF(q: int, var: str = "u") -> FF:
    """Finite field of order q = p^d with the canonical modulus."""
    p, d = _split_prime_power(q)
    return FF(p, canonical_modulus(p, d), var=var, _validate=False)


def _split_prime_power(q: int) -> tuple[int, int]:
    if q > 2 and q % 2:
        if is_prime(q):
            return q, 1
        # the base of the largest exponent is prime exactly for a prime power
        power = perfect_power(q)
        if power and is_prime(power[0]):
            return power
    raise UnsupportedField(f"{q} is not an odd prime power")


_CANONICAL_MODULI: dict[tuple[int, int], tuple[int, ...]] = {}


def canonical_modulus(p: int, d: int) -> tuple[int, ...]:
    """First monic irreducible of degree d over F_p in index order."""
    if d == 1:
        return (0, 1)
    key = (p, d)
    if key not in _CANONICAL_MODULI:
        K = FF(p, _validate=False).kernel
        for index in range(p ** d):
            m = _digits(index, p, d) + (1,)
            if _is_irreducible_ff(K, list(m[::-1])):
                _CANONICAL_MODULI[key] = m
                break
    return _CANONICAL_MODULI[key]


def _digits(index: int, p: int, n: int) -> tuple[int, ...]:
    """The n lowest base-p digits of index, lowest first (index order)."""
    out = []
    for _ in range(n):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class PolyRing:
    """Univariate polynomial ring over a field context.

    ``level`` is 0 over Q and F_q and 1 over Q(t) and F_q(t); ``kernel``
    holds the rows (Z[x], Z[t][x], F_q[t] or F_q[t][x]) that its products
    and gcds run on and ``FunctionField(field, var)`` stores.  Any other
    field, a level-1 function field included, has no kernel and raises
    ``UnsupportedField``.
    """

    def __init__(self, field, var: str):
        self.field = field
        self.var = var
        if isinstance(field, (RationalField, FF)):
            self.level = 0
            self.kernel = field.kernel if isinstance(field, FF) else _INT_ROWS[0]
        elif isinstance(field, FunctionField) and field.level == 0:
            self.level = 1
            self.kernel = (_INT_ROWS[1] if field.characteristic == 0
                           else _FqxRows(field.kernel))
        else:
            raise UnsupportedField(f"no polynomials over {field!r}")

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

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
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
            p = _promote(self, other)
            return NotImplemented if p is None else p - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
            return NotImplemented if p is None else p * other
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return self.ring.zero()
        K = self.ring.kernel
        (ra, da), (rb, db) = K.rows(a), K.rows(b)
        return K.to_poly(self.ring, K.mul(ra, rb), K.mul(da, db))

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


def _promote(x, other):
    """View the Poly or RatFunc x as an element of other's (larger)
    context, if possible.  Needed because Python never consults reflected
    operators when both operands share a type, which happens across nested
    function fields."""
    ctx = (other.field if isinstance(other, RatFunc) else
           other.ring if isinstance(other, Poly) else None)
    try:
        return None if ctx is None else ctx.coerce(x)
    except ContextMismatch:
        return None


def _paren(s: str) -> str:
    if any(op in s for op in (" ", "+", "/")) or ("-" in s[1:]):
        return f"({s})"
    return s


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is an error.

    It is taken on the ring's rows (``PolyRing.kernel``): over Q and Q(t)
    on Z[x] or Z[t][x] (both inputs scaled by nonzero constants, so by
    Gauss's lemma their gcd there is the gcd over the field up to a unit)
    by ``_IntRows``, over Q on plain ints and over Q(t) by sympy's
    ``dmp_inner_gcd`` unless an input is constant; over F_q by Euclid on
    F_q[t] rows (``_FqRows``), and over F_q(t) by a primitive
    pseudo-remainder sequence over F_q[t] (``_FqxRows``).
    """
    if not f and not g:
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    if not g:
        return f.monic()
    if not f:
        return g.monic()
    K = f.ring.kernel   # h / lc(h) is monic
    h = K.gcd_rows(K.rows(f.coeffs)[0], K.rows(g.coeffs)[0])
    return K.to_poly(f.ring, h, [h[0]])


# ---------------------------------------------------------------------------
# row kernels: the stored form of Q(t), Q(t)(x), F_q(t) and F_q(t)(x)
# ---------------------------------------------------------------------------


def _convolve(a, b):
    """The product of two rows of ints, highest degree first, unreduced:
    schoolbook (von zur Gathen and Gerhard, *Modern Computer Algebra*,
    ch. 8), a scaling when either row has length 1.  The outer loop skips
    zeros, so it runs on the row with fewer nonzero entries."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        c, row = (a[0], b) if len(a) == 1 else (b[0], a)
        return [c * x for x in row]
    if len(a) + len(b) > 6 and len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_divides(f, g):
    """f / g in Z[x] for a row g of positive degree, or None if g does not
    divide f there (sympy's ``dup_rr_div`` with a zero remainder)."""
    n = len(f) - len(g) + 1
    if n <= 0:
        return None if f else []
    lc, rest, r, q = g[0], g[1:], list(f), []
    for i in range(n):
        c, m = divmod(r[i], lc)
        if m:
            return None
        q.append(c)
        if c:
            for j, y in enumerate(rest, i + 1):
                r[j] -= c * y
    return None if any(r[n:]) else q


def _zz_gcd(f, g):
    """(h, f/h, g/h) for h the gcd of two rows of Z[x], each zero or of
    positive degree: exactly what sympy's ``dup_inner_gcd`` returns.  The
    gcd of the contents comes out first (``dup_extract``); then the
    heuristic gcd (``_heu_gcd``) runs, and only when it fails sympy."""
    if not f or not g:
        h, one = f or g, [1] if f or g else []
        if h and h[0] < 0:
            h, one = [-c for c in h], [-1]
        return (h, [], one) if not f else (h, one, [])
    c = math.gcd(*f, *g)
    found = _heu_gcd(*((f, g) if c == 1 else
                       ([x // c for x in f], [x // c for x in g])))
    if found is None:
        return _sympy_gcd(f, g, 0)
    h, cff, cfg = found
    return (h if c == 1 else [x * c for x in h]), cff, cfg


def _sympy_gcd(f, g, u: int):
    """sympy's ``dmp_inner_gcd`` over Z (``dup_inner_gcd`` at u = 0)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_inner_gcd
    return dmp_inner_gcd(f, g, u, ZZ)


def _heu_gcd(f, g):
    """(h, f/h, g/h) for rows f and g of Z[x] of positive degree with
    coprime contents, or None: GCDHEU (Char, Geddes and Gonnet, J. Symbolic
    Comput. 7, 1989) as sympy's ``dup_zz_heu_gcd`` runs it, step for step,
    so that the triple is sympy's.  At each of six points xi the integer
    gcd of f(xi) and g(xi), and each cofactor, is interpolated in the
    symmetric base-xi digits; a candidate is accepted when exact division
    confirms it."""
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    b = 2 * min(f_norm, g_norm) + 29
    xi = max(min(b, 99 * math.isqrt(b)),
             2 * min(f_norm // abs(f[0]), g_norm // abs(g[0])) + 4)
    for _ in range(6):
        ff, gg = _horner(f, xi), _horner(g, xi)
        if ff and gg:
            h = math.gcd(ff, gg)
            cff, cfg = ff // h, gg // h
            h = _interpolate(h, xi)
            c = math.gcd(*h)
            h = h if c == 1 else [x // c for x in h]
            if ((q := _int_divides(f, h)) is not None
                    and (r := _int_divides(g, h)) is not None):
                return h, q, r
            cff = _interpolate(cff, xi)
            if ((h := _int_divides(f, cff)) is not None
                    and (r := _int_divides(g, h)) is not None):
                return h, cff, r
            cfg = _interpolate(cfg, xi)
            if ((h := _int_divides(g, cfg)) is not None
                    and (q := _int_divides(f, h)) is not None):
                return h, q, cfg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _horner(f, xi: int) -> int:
    v = 0
    for c in f:
        v = v * xi + c
    return v


def _interpolate(h: int, xi: int):
    """The row whose digits in base xi, each in (-xi/2, xi/2], make h."""
    out = []
    while h:
        d = h % xi
        if d > xi // 2:
            d -= xi
        out.append(d)
        h = (h - d) // xi
    return out[::-1]


class _Rows:
    """Arithmetic on the rows of one ring R (Z[x], Z[t][x], F_q[t] or
    F_q[t][x]), x outer and highest degree first.  ``reduced(n, d)`` is the
    normal form of n / d: gcd 1, and d times the ``unit`` that normalises
    it; ``RatFunc`` runs it when a level-0 element is made and on the first
    use of a level-1 element's ``rows``.  ``rows(coeffs)`` is (rows, den)
    with the polynomial of these coefficients equal to rows / den, den a
    constant row, no prime of R dividing den and every row; ``to_poly``
    inverts it.  A level-1 kernel's ``base`` is the kernel of its
    coefficients' rows in k[t].

    ``add``, ``neg``, ``sub`` and ``mul`` are plain list code shared by the
    kernels: on ints at level 0 (``_IntRows``; ``_FqRows`` reduces
    ``_convolve`` mod p and has galoistools' sums as plain list code too),
    and over ``base`` at level 1, where the zero row is ``zero`` ([[]] in
    Z[t][x], [] in F_q[t][x]) and ``exquo`` is long division.  Rows here
    have 1-3 entries, where sympy's generic dense loops cost more than the
    arithmetic.  The squarefree decomposition runs on ``derivative``
    (through each kernel's ``times(c, k)``), ``gcd_rows``, ``exquo`` and,
    in characteristic p only, ``pth_root``."""

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        d = len(a) - len(b)
        out = a[:d] + ([self.base.add(x, y) for x, y in zip(a[d:], b)]
                       if self.u else [x + y for x, y in zip(a[d:], b)])
        while out and not out[0]:
            del out[0]
        return out or self.zero

    def neg(self, a):
        return [self.base.neg(c) for c in a] if self.u else [-c for c in a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        """Schoolbook: ``_convolve`` at level 0, over ``base`` at level 1."""
        if not self.u:
            return _convolve(a, b)
        if a == self.zero or b == self.zero:
            return self.zero
        base = self.base
        out = [base.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    xy = base.mul(x, y)
                    out[j] = base.add(out[j], xy) if out[j] else xy
        return out

    def derivative(self, a):
        """d/dx: entry i, of degree n - i, times n - i (``times``)."""
        n = len(a) - 1
        out = [self.times(c, n - i) for i, c in enumerate(a[:-1])]
        while out and not out[0]:
            del out[0]
        return out or self.zero

    @staticmethod
    def degree(a) -> int:
        return len(a) - 1

    @staticmethod
    def lead(a):
        """The row of degree 0 of the leading coefficient of a nonzero a."""
        return [a[0]]

    def proportional(self, n, d) -> bool:
        """Whether n / d is constant, for nonzero n and d: n*lc(d) ==
        d*lc(n), which no common factor of n and d changes."""
        return (self.degree(n) == self.degree(d)
                and self.mul(n, self.lead(d)) == self.mul(d, self.lead(n)))

    def rows(self, coeffs):
        """L the lcm of the denominators of the coefficients' reduced rows,
        so L / den is exact and no prime of k[t] divides L and every row."""
        if not coeffs:
            return self.zero, self.one
        base, lcm = self.base, self.base.one
        for c in coeffs:
            den = c.rows[1]
            if den != lcm and den != base.one:
                lcm = (den if lcm == base.one else
                       base.mul(lcm, base.exquo(den, base.gcd_rows(lcm, den))))
        return [n if den == lcm else
                base.mul(n, lcm if den == base.one else base.exquo(lcm, den))
                for n, den in (c.rows for c in reversed(coeffs))], [lcm]

    @staticmethod
    def to_poly(ring: PolyRing, rows, den) -> Poly:
        kt = ring.field
        return Poly(ring, tuple(RatFunc(kt, _rows=(c, den[0]))
                                for c in reversed(rows)))

    def pow(self, a, e: int):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a, e = self.mul(a, a), e >> 1
        return out

    def reduced(self, n, d):
        """The canonical pair of n / d (``RatFunc.rows``): at level 1 it
        runs on the first use of ``rows``, not when the element is made."""
        if n == self.zero:
            return n, self.one
        if d != self.one:
            n, d = self.cofactors(n, d)
            unit = self.unit(d)
            if unit is not None:
                n, d = self.mul(n, unit), self.mul(d, unit)
        return n, d

    def exquo(self, a, b):
        """a / b at level 1, for b dividing a: long division over ``base``,
        with InvariantViolated on a nonzero remainder (a kernel of level 0
        has its own)."""
        base, r, q = self.base, list(a), []
        for i in range(len(a) - len(b) + 1):
            c = base.exquo(r[i], b[0]) if r[i] else base.zero
            q.append(c)
            if c:
                for j, y in enumerate(b, i):
                    r[j] = base.sub(r[j], base.mul(c, y))
        if any(r):
            raise InvariantViolated(f"{b} does not divide {a}")
        return q or self.zero

    def cofactors(self, a, b):
        """a / g and b / g for g the gcd of a and b."""
        g = self.gcd_rows(a, b)
        return (a, b) if g == self.one else (self.exquo(a, g), self.exquo(b, g))

    def content(self, a):
        """The gcd in k[t] of the entries of a level-1 row."""
        base, g = self.base, self.base.zero
        for c in a:
            g = base.gcd_rows(g, c)
            if g == base.one:
                break
        return g


class _IntRows(_Rows):
    """Z[x] (u = 0) or Z[t][x] (u = 1) in sympy's dense form: the rows of
    Q(x) and Q(t), and of Q(t)(x).  Z[x] and Z[t][x] are UFDs, so a reduced
    fraction there is unique up to sign, and D gets a positive leading
    integer.  Every result equals sympy's dense routine's, entry for entry.

    In Z[x] everything runs on plain ints: sums and products (``_Rows``),
    exact division (``_int_divides``), and gcd and cofactors (``_zz_gcd``,
    sympy's heuristic gcd; with a constant row, the gcd of all entries).
    In Z[t][x] a gcd with an operand constant in x is the gcd in Z[t] of
    its entry and the other operand's content, as sympy's
    ``_dmp_simplify_gcd`` takes it, and division by such a row divides
    each entry in Z[t]; both run on the Z[x] kernel.  Other Z[t][x]
    divisions are the long division of ``_Rows``, and other Z[t][x] gcds
    import and call sympy's ``dmp_inner_gcd``."""

    def __init__(self, u: int, base=None):
        self.u, self.base = u, base
        self.zero, self.one = ([], [[]])[u], ([1], [[1]])[u]

    def times(self, c, k: int):
        return [x * k for x in c] if self.u else c * k

    def exquo(self, a, b):
        if self.u:
            return ([self.base.exquo(x, b[0]) for x in a] if len(b) == 1
                    else super().exquo(a, b))
        if len(b) > 1:
            q = _int_divides(a, b)
        else:
            q = None if any(x % b[0] for x in a) else [x // b[0] for x in a]
        if q is None:
            raise InvariantViolated(f"{b} does not divide {a} in Z[x]")
        return q

    def _ground_gcd(self, a, b):
        """The gcd of a and b when one of them is constant in x, else None:
        in Z[x] the gcd of all entries; in Z[t][x], for nonzero rows, the
        gcd in Z[t] of the contents (entries) of both."""
        if 1 not in (len(a), len(b)):
            return None
        if not self.u:
            return [math.gcd(*a, *b)]
        if a[0] and b[0]:
            return [self.base.gcd_rows(self.content(a), self.content(b))]
        return None

    def _inner_gcd(self, a, b):
        return _sympy_gcd(a, b, 1) if self.u else _zz_gcd(a, b)

    def gcd_rows(self, a, b):
        g = self._ground_gcd(a, b)
        return self._inner_gcd(a, b)[0] if g is None else g

    def cofactors(self, a, b):
        g = self._ground_gcd(a, b)
        if g is None:
            return self._inner_gcd(a, b)[1:]
        return (a, b) if g == self.one else (self.exquo(a, g), self.exquo(b, g))

    def unit(self, a):
        lead = a[0][0] if self.u else a[0]
        return self.neg(self.one) if lead < 0 else None

    def rows(self, coeffs):
        if self.u or not coeffs:
            return super().rows(coeffs)
        # a prime whose full power in the lcm divides the denominator of a
        # reduced coefficient c does not divide c's numerator
        lcm = math.lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (lcm // c.denominator)
                for c in reversed(coeffs)], [lcm]

    def to_poly(self, ring: PolyRing, rows, den) -> Poly:
        if self.u:
            return super().to_poly(ring, rows, den)
        return Poly(ring, tuple(Fraction(c, den[0]) for c in reversed(rows)))


_INT_ROWS = (_IntRows(0),)
_INT_ROWS += (_IntRows(1, _INT_ROWS[0]),)


def _strip(row):
    """row without its leading zeros (galoistools' ``gf_strip``)."""
    if not row or row[0]:
        return row
    for i, c in enumerate(row):
        if c:
            return row[i:]
    return []


def _gf_divmod(a, b, p: int):
    """galoistools' ``gf_div`` for b != 0, with 1/lc(b) from ``pow``."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [], a
    inv, h = pow(b[0], -1, p), list(a)
    for i in range(da - db + 1):
        c = h[i] * inv % p
        h[i] = c
        if c:
            for j in range(1, db + 1):
                h[i + j] -= c * b[j]
    return h[:da - db + 1], _strip([c % p for c in h[da - db + 1:]])


class _FqRows(_Rows):
    """F_q[t], q = p^k, on rows over F_p: the rows of F_q(t) (D monic), and
    the kernel of ``FFElement`` products in F_{p^k}.  An element of F_q =
    F_p[y]/(m) is its galoistools row in y, and sum c_i t^i the F_p row of
    sum c_i(z) z^(i*w), w = 2k - 1: Kronecker substitution t = z^w, y = z
    (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 8).  Each
    coefficient sits reduced in a block of w slots, so the blocks of a
    product, of y-degree up to 2k - 2, do not overlap: one product over F_p
    and a block reduction mod m multiply.  Over F_p the rows are
    galoistools'."""

    u = 0
    zero, one = [], [1]

    def __init__(self, field: "FF"):
        self.field, self.p, self.k = field, field.p, field.degree
        self.w = 2 * self.k - 1
        self.modulus = list(reversed(field.modulus))     # m as a row

    def add(self, a, b):
        """galoistools' ``gf_add``: the shorter row adds into the tail."""
        if not a:
            return b
        if not b:
            return a
        p, d = self.p, len(a) - len(b)
        if d < 0:
            a, b, d = b, a, -d
        if d:
            return a[:d] + [(x + y) % p for x, y in zip(a[d:], b)]
        return _strip([(x + y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return [-c % p for c in a]

    def mul(self, a, b):
        """``_convolve`` over Z, then each entry mod p, or each block mod m
        and p (``_reduce``)."""
        out = _convolve(a, b)
        return [c % self.p for c in out] if self.k == 1 else self._reduce(out)

    def _reduce(self, row):
        """Each block of an F_p row of ints reduced mod m and p."""
        p, k, w, m = self.p, self.k, self.w, self.field.modulus
        r = row[::-1]
        for base in range(0, len(r), w):
            for s in range(min(base + w, len(r)) - 1, base + k - 1, -1):
                c = r[s] % p
                if c:
                    for i in range(k):
                        r[s - k + i] -= c * m[i]
                r[s] = 0
        return _strip([c % p for c in reversed(r)])

    def derivative(self, a):
        """d/dt on the packed row: slot i from the constant end, in the
        block of t^(i // w), times i // w; the lowest block drops out."""
        p, n = self.p, len(a) - 1
        return _strip([a[i] * ((n - i) // self.w) % p
                         for i in range(len(a) - self.w)])

    def pth_root(self, a):
        """The p-th root of a row of F_q[t^p]: the blocks at t^(jp), each
        coefficient raised to q/p (the identity over F_p)."""
        k, w, e = self.k, self.w, self.field.order // self.p
        r, out = a[::-1], []
        for s in range(0, len(r), self.p * w):
            c = self.pow(_strip(r[s:s + k][::-1]), e)[::-1]
            out += c + [0] * (w - len(c))
        return _strip(out[::-1])

    def degree(self, a) -> int:
        return (len(a) - 1) // self.w

    def lead(self, a):
        """The row of the leading coefficient of a nonzero a: its top block."""
        return a[:(len(a) - 1) % self.w + 1]

    def unit(self, a):
        """None if a is monic, else the row of 1/lc(a)."""
        lead = self.lead(a)
        return None if lead == self.one else self.inverse(lead)

    def inverse(self, c):
        """The row of 1/c for the row c of a nonzero element of F_q, by
        extended Euclid with m: s*c = r0 modulo m."""
        p = self.p
        if self.k == 1:
            return [pow(c[0], -1, p)]
        r0, r1, s0, s1 = self.modulus, c, [], [1]
        while r1:
            q, r = _gf_divmod(r0, r1, p)
            qs = [c % p for c in _convolve(q, s1)]
            r0, r1, s0, s1 = r1, r, s1, self.sub(s0, qs)
        if len(r0) != 1:
            raise DivisionByZero("element not invertible (modulus reducible?)")
        inv = pow(r0[0], -1, p)
        return [c * inv % p for c in s0]

    def element(self, c) -> "FFElement":
        """The element of F_q of a reduced row of at most k entries."""
        return FFElement(self.field, tuple(c[::-1]) + (0,) * (self.k - len(c)))

    def divmod(self, a, b):
        """(q, r) with a = q*b + r and deg r < deg b.

        For k > 1 the long division by the monic b' = b/lc(b) runs in place
        on one reversed copy of a.  The top coefficient sum c_i y^i of what
        is left is cleared by subtracting each c_i times the reduced row of
        y^i*b', shifted; these k rows are built once, and each block keeps
        its k slots, reduced mod p only where it is read.  The quotient by
        b' collects the coefficients c and is multiplied by 1/lc(b) once."""
        if not b:
            raise DivisionByZero("polynomial division by zero")
        if self.k == 1:
            return _gf_divmod(a, b, self.p)
        p, k, w = self.p, self.k, self.w
        da, db = self.degree(a) if a else -1, self.degree(b)
        if da < db:
            return [], a
        inv = self.unit(b)
        if inv is not None:
            b = self.mul(b, inv)
        size = db * w + k
        ys = [(self._reduce(b + [0] * i) if i else b)[::-1] for i in range(k)]
        ys = [y + [0] * (size - len(y)) for y in ys]
        r = a[::-1] + [0] * (da * w + k - len(a))
        q = [0] * ((da - db) * w + k)
        for s in range((da - db) * w, -1, -w):
            cs = [c % p for c in r[s + db * w:s + db * w + k]]
            q[s:s + k] = cs
            for c, y in zip(cs, ys):
                if c:
                    r[s:s + size] = [x - c * t
                                     for x, t in zip(r[s:s + size], y)]
        q = _strip(q[::-1])
        if inv is not None:
            q = self.mul(q, inv)
        return q, _strip([c % p for c in reversed(r[:db * w])])

    def exquo(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise InvariantViolated(f"{b} does not divide {a} in F_q[t]")
        return q

    def gcd_rows(self, a, b):
        """The monic gcd of two rows."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        unit = self.unit(a) if a else None
        return a if unit is None else self.mul(a, unit)

    def order(self, a, pi) -> int:
        """The largest m with pi^m dividing a nonzero row a."""
        m = 0
        while True:
            q, r = self.divmod(a, pi)
            if r:
                return m
            a, m = q, m + 1

    def rows(self, coeffs):
        pad, row = [0] * (self.k - 1), []
        for c in reversed(coeffs):
            row += pad
            row += c.coeffs[::-1]
        return _strip(row), self.one

    def to_poly(self, ring: PolyRing, rows, den) -> Poly:
        if den != self.one:
            rows = self.mul(rows, self.inverse(den))
        k, r = self.k, rows[::-1] + [0] * (self.k - 1)
        return Poly(ring, tuple(FFElement(self.field, tuple(r[i:i + k]))
                                for i in range(0, len(rows), self.w)))


class _FqxRows(_Rows):
    """F_q[t][x]: rows (x outer, highest degree first) of ``_FqRows`` rows,
    the rows of F_q(t)(x).  gcds run a primitive pseudo-remainder sequence
    over F_q[t], and D gets a monic leading coefficient."""

    u = 1
    zero, one = [], [[1]]

    def __init__(self, base: _FqRows):
        self.base, self.p = base, base.p

    def times(self, c, k: int):
        p, k = self.p, k % self.p
        return [x * k % p for x in c] if k else []

    def pth_root(self, a):
        """The p-th root of a row of F_q(t)[x^p] up to a unit of F_q(t): its
        primitive part is a p-th power exactly when every entry lies in
        F_q[t^p], and then it is ``base.pth_root`` of every p-th entry."""
        base = self.base
        a = self._ground_quo(a, self.content(a))
        if any(base.derivative(c) for c in a):
            raise UnsupportedField("inseparable polynomial: it has no "
                                   "squarefree decomposition")
        return [base.pth_root(c) for c in a[::self.p]]

    def unit(self, a):
        unit = self.base.unit(a[0])
        return None if unit is None else [unit]

    def _ground_quo(self, a, c):
        return a if c == self.base.one else [self.base.exquo(x, c) for x in a]

    def prem(self, f, g):
        """lc(g)^e * f mod g for some e >= 0, for nonzero f and g."""
        base, lc, dg = self.base, g[0], len(g) - 1
        while len(f) - 1 >= dg:
            lf = f[0]
            f = [base.mul(lc, c) for c in f] if lc != base.one else list(f)
            for i in range(1, dg + 1):
                f[i] = base.sub(f[i], base.mul(lf, g[i]))
            del f[0]
            while f and not f[0]:
                del f[0]
        return f

    def gcd_rows(self, a, b):
        """gcd of nonzero rows: the content gcd times the last primitive
        remainder."""
        ca, cb = self.content(a), self.content(b)
        c = self.base.gcd_rows(ca, cb)
        a, b = self._ground_quo(a, ca), self._ground_quo(b, cb)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = self.prem(a, b)
            if not r:
                break
            a, b = b, self._ground_quo(r, self.content(r))
        return [c] if len(b) == 1 else [self.base.mul(c, x) for x in b]


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class FunctionField:
    """Field of rational functions over Q, F_q, Q(t) or F_q(t)."""

    def __init__(self, field, var: str):
        self.ring = PolyRing(field, var)
        self.var = var
        self.level = self.ring.level    # 0 for k(t), 1 for k(t)(x); see RatFunc
        self.kernel = self.ring.kernel

    @property
    def coefficient_field(self):
        return self.ring.field

    @property
    def characteristic(self):
        return self.ring.field.characteristic

    def from_poly(self, num: Poly) -> "RatFunc":
        # no gcd: rows / den is reduced (see the kernels' rows)
        x = RatFunc(self, _rows=self.kernel.rows(num.coeffs), _reduced=True)
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
    """Rational function whose ``rows`` are canonical: the normal form of
    its reduced rows, so that two constructions of the same function
    produce identical representations.

    A rational function over k = Q or F_q (in k(t) or Q(x), level 0) or
    over k(t) (in k(t)(x), level 1, ``FunctionField.level``) is stored as
    ``fraction``: a pair (N, D) of rows of the field's kernel (Z[x],
    Z[t][x], F_q[t] or F_q[t][x], see ``PolyRing.kernel``) with N/D the
    function.  ``rows`` is the canonical pair, gcd 1 and D normalised
    (``reduced``: a positive leading integer in characteristic 0, a monic
    leading coefficient in characteristic p); the Polys num and den (gcd 1,
    den monic) are built from it on first use.

    Arithmetic runs on ``fraction``, one kernel product or sum per
    operation.  At level 1 ``+ - * /`` leave it unreduced, and ``rows``
    runs ``reduced`` on first use and keeps the result.  At level 0 the gcd
    runs at once, so ``fraction`` is ``rows``: these elements are the
    coefficients of level-1 rows and of Polys, and Euclid and Horner chains
    over them compound unreduced sizes (left unreduced, the Euclid chains
    of ``test_tower_gcd_agrees_with_euclid`` took 850 s against 1.4 s, on
    a 2-core x86 machine).  Valuations are multiplicative, so w(N) - w(D)
    is the same for every pair: they read ``fraction``, as do ``bool`` and
    ``is_constant``; equality, hashing, printing, num/den, degrees and
    powers read ``rows``.
    """

    __slots__ = ("field", "fraction", "_reduced", "_num", "_den")

    def __init__(self, field: FunctionField, num: Poly | None = None,
                 den: Poly | None = None, _reduced: bool = False, _rows=None):
        if _rows is None and not den:
            raise DivisionByZero("rational function with zero denominator")
        self.field = field
        K = field.kernel
        # _reduced vouches only for rows that are already canonical
        if _rows is None:
            (rn, dn), (rd, dd) = K.rows(num.coeffs), K.rows(den.coeffs)
            _rows, _reduced = (K.mul(rn, dd), K.mul(rd, dn)), False
        if not (_reduced or field.level):
            _rows, _reduced = K.reduced(*_rows), True
        self.fraction, self._reduced = _rows, _reduced
        self._num = self._den = None

    @property
    def rows(self):
        """The canonical pair: ``reduced`` of ``fraction``, on first use."""
        if not self._reduced:
            self.fraction = self.field.kernel.reduced(*self.fraction)
            self._reduced = True
        return self.fraction

    def _polys(self):
        n, d = self.rows
        K, ring = self.field.kernel, self.field.ring
        if n == K.zero:
            self._num, self._den = ring.zero(), ring.one()
        else:   # both over the lead of d, so den is monic
            self._num = K.to_poly(ring, n, [d[0]])
            self._den = K.to_poly(ring, d, [d[0]])

    @property
    def num(self) -> Poly:
        if self._num is None:
            self._polys()
        return self._num

    @property
    def den(self) -> Poly:
        if self._den is None:
            self._polys()
        return self._den

    def _other(self, other):
        if isinstance(other, RatFunc) and other.field == self.field:
            return other
        try:
            return self.field.coerce(other)
        except ContextMismatch:
            return None

    def is_polynomial(self) -> bool:
        return len(self.rows[1]) == 1

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
            return NotImplemented if p is None else p + other
        (n1, d1), (n2, d2), K = self.fraction, o.fraction, self.field.kernel
        if d1 == d2:
            return RatFunc(self.field, _rows=(K.add(n1, n2), d1))
        return RatFunc(self.field, _rows=(K.add(K.mul(n1, d2), K.mul(n2, d1)),
                                          K.mul(d1, d2)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
            return NotImplemented if p is None else p - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        n, d = self.fraction
        return RatFunc(self.field, _rows=(self.field.kernel.neg(n), d),
                       _reduced=self._reduced)

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
            return NotImplemented if p is None else p * other
        (n1, d1), (n2, d2), K = self.fraction, o.fraction, self.field.kernel
        return RatFunc(self.field, _rows=(K.mul(n1, n2), K.mul(d1, d2)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            p = _promote(self, other)
            return NotImplemented if p is None else p / other
        if not o:
            raise DivisionByZero("division by the zero rational function")
        (n1, d1), (n2, d2), K = self.fraction, o.fraction, self.field.kernel
        return RatFunc(self.field, _rows=(K.mul(n1, d2), K.mul(d1, n2)))

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        if not self:
            raise DivisionByZero("inverse of zero")
        n, d = self.rows
        return RatFunc(self.field, _rows=(d, n))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        (n, d), K = self.rows, self.field.kernel
        return RatFunc(self.field, _rows=(K.pow(n, e), K.pow(d, e)),
                       _reduced=True)

    def __bool__(self):
        return self.fraction[0] != self.field.kernel.zero

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return other.field == self.field and other.rows == self.rows
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self == o

    def __hash__(self):
        u = self.field.level
        return hash((self.field, *(tuple(map(tuple, r)) if u else tuple(r)
                                   for r in self.rows)))

    def __call__(self, x0):
        """Substitute x0 (any compatible value) for the variable."""
        num = self.num(x0)
        den = self.den(x0)
        if isinstance(num, Poly) or isinstance(den, Poly):
            raise ContextMismatch("substitute a value, not a bare polynomial")
        return num / den

    def degree(self) -> int:
        """max(deg num, deg den); the degree of the map P^1 -> P^1."""
        return max(map(self.field.kernel.degree, self.rows))

    def is_constant(self) -> bool:
        """``degree() == 0``, read on ``fraction`` with no gcd."""
        (n, d), K = self.fraction, self.field.kernel
        return n == K.zero or K.proportional(n, d)

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


# ---------------------------------------------------------------------------
# context inference
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


# ---------------------------------------------------------------------------
# squares and square classes
# ---------------------------------------------------------------------------


def is_square(x, ctx=None):
    """Decide x in K*^2; returns (flag, root) with root None when not a square.

    Supported K: the rationals, finite fields, and rational function fields
    over either, where x = k * s^2 * c (``_square_split``) is a square
    exactly when k = 1 and the constant c is a square, so no factorization
    is needed.  Over F_q it is ``FF.sqrt``: Euler's test, then the
    Tonelli-Shanks root of least index.
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
        k, s, c = _square_split(x)
        if k != 1:
            return False, None
        ok, root = is_square(c, ctx.coefficient_field)
        return ok, s * root if ok else None
    raise UnsupportedField(f"squareness is not decidable over {ctx!r}")


def _square_split(x: RatFunc):
    """(k, s, c) with x = k * s^2 * c, read off the rows (N, D) of x by
    ``_squarefree_rows``: k the product of the monic odd-multiplicity
    squarefree parts of N and D (1/g^m = g * (g^(-(m+1)/2))^2 for odd m),
    s the remaining powers and c = lc(N) / lc(D)."""
    F = x.field
    K, (N, D) = F.kernel, x.rows
    k = s = F.one()
    for sign, row in ((1, N), (-1, D)):
        for g, m in _squarefree_rows(K, row):
            g = RatFunc(F, _rows=(g, K.lead(g)))
            if m % 2:
                k = k * g
            s = s * g ** (sign * m // 2)
    return k, s, K.to_poly(F.ring, K.lead(N), K.lead(D)).leading()


def sqrt_exact(x, ctx=None):
    ok, root = is_square(x, ctx)
    if not ok:
        raise ZeroInput(f"{x} is not a square")
    return root


def square_class_reduce(x, ctx=None):
    """Write x = r * s^2 with r the canonical square-class representative.

    Over Q the representative is the squarefree integer with the sign of x,
    read off ``integers.factorint`` of the numerator and of the denominator:
    plain-int trial division and Brent's rho below 10^23, p-1, capped rho
    and ECM for a cofactor from there up (``sympy.factorint`` only past 50
    curves), and primality proven by strong tests below 3.3*10^24, by
    ``sympy.isprime`` above for a probable prime.  Over a finite field it is
    1 or the first nonsquare in index order; over k(t) it is k times the
    representative of c, for x = k * s^2 * c (``_square_split``).  Returns
    (r, s).
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
            for prime, e in factorint(n).items():
                if e % 2 == 1:
                    r *= prime
        r = Fraction(r)
        return r, sqrt_exact(x / r, ctx)
    if isinstance(ctx, FF):
        ok, root = is_square(x, ctx)
        if ok:
            return ctx.one(), root
        c0 = _canonical_nonsquare(ctx)
        return c0, sqrt_exact(x / c0, ctx)
    if isinstance(ctx, FunctionField):
        k, s, c = _square_split(x)
        c_red, c_s = square_class_reduce(c, ctx.coefficient_field)
        r, s = k * ctx.coerce(c_red), s * ctx.coerce(c_s)
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
    """(lead, [(g_i, m_i)]) with f = lead * prod g_i^{m_i}, the g_i monic,
    squarefree and pairwise coprime, listed with increasing multiplicity.

    Musser's loop runs once on f's rows (``_squarefree_rows``), by the
    kernel's ``derivative``, ``gcd_rows`` and ``exquo``; in characteristic p
    the part it leaves is a p-th power, decomposed again on ``pth_root``."""
    if not f:
        raise ZeroPolynomial("squarefree decomposition of zero")
    K = f.ring.kernel
    merged = {}
    for g, m in _squarefree_rows(K, K.rows(f.coeffs)[0]):
        merged[m] = K.mul(merged[m], g) if m in merged else g
    return f.leading(), [(K.to_poly(f.ring, g, K.lead(g)), m)
                         for m, g in sorted(merged.items())]


def _squarefree_rows(K, f):
    """Musser's loop on a row f of K (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 14): [(g, m)], the g squarefree, pairwise coprime
    and of positive degree, with f = unit * prod g^m."""
    if K.degree(f) < 1:
        return []
    fp = K.derivative(f)
    c = f if fp == K.zero else K.gcd_rows(f, fp)
    w, i, out = K.exquo(f, c), 1, []
    while K.degree(w) > 0:
        y = K.gcd_rows(w, c)
        z = K.exquo(w, y)
        if K.degree(z) > 0:
            out.append((z, i))
        i, w, c = i + 1, y, K.exquo(c, y)
    if K.degree(c) > 0:
        out += [(g, m * K.p) for g, m in _squarefree_rows(K, K.pth_root(c))]
    return out


def is_irreducible(f: Poly) -> bool:
    """Whether f is irreducible: over F_q by distinct-degree factorisation
    on the rows of f (``_is_irreducible_ff``), over Q by factoring (degree
    <= 8)."""
    if not f:
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    field = f.ring.field
    if isinstance(field, FF):
        return _is_irreducible_ff(field.kernel,
                                  field.kernel.rows(f.monic().coeffs)[0])
    if isinstance(field, RationalField):
        if f.degree() < 1:
            return False
        _, facs = factor(f)
        return len(facs) == 1 and facs[0][1] == 1
    raise UnsupportedField(f"irreducibility not supported over {field!r}")


def _is_irreducible_ff(K: _FqRows, f) -> bool:
    """Irreducibility of a monic row f of F_q[t]: a reducible f of degree n
    has an irreducible factor of degree <= n/2, which the distinct-degree
    factorisation meets first, so it is stopped at its first factor
    (repeated factors included, because gcd(t^(q^d) - t, f) holds every
    irreducible factor of degree d)."""
    n = K.degree(f)
    return n > 0 and next(_ddf(K, f))[0] == n


def factor(f: Poly):
    """Factor into monic irreducibles: returns (lead, [(g_i, m_i)]).

    Over a finite field F_q of any order it runs on the rows of f
    (``_factor_ff``): each squarefree part is split by distinct-degree and
    then equal-degree factorisation, in time polynomial in deg f and log q;
    the factors are sorted by degree and index, so the seeded random draws
    of the equal-degree split never show.  Over Q the computation is
    delegated to sympy and restricted to degree <= 8, which covers the
    square-class normalizations this package needs.
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
    """Cantor and Zassenhaus (Math. Comp. 36, 1981) on the rows of f.monic():
    ``_ddf`` and ``_edf`` split each monic Musser part (``_squarefree_rows``).
    The parts are pairwise coprime, so each factor comes from one part and
    takes its multiplicity."""
    K, rng = f.ring.kernel, random.Random(0)
    facs = [(K.to_poly(f.ring, h, K.one), m)
            for g, m in _squarefree_rows(K, K.rows(f.monic().coeffs)[0])
            for d, gd in _ddf(K, g) for h in _edf(K, gd, d, rng)]
    facs.sort(key=lambda it: (it[0].degree(), _poly_index(it[0])))
    return f.leading(), facs


def _poly_index(g: Poly):
    """The ``element_at`` indices of the coefficients of g over F_q."""
    p = g.ring.field.p
    idx = []
    for c in g.coeffs:
        v = 0
        for a in reversed(c.coeffs):
            v = v * p + a
        idx.append(v)
    return tuple(idx)


def _pow_mod(K: _FqRows, b, e: int, m):
    """b^e mod m on rows of F_q[t], by repeated squaring."""
    b, out = K.divmod(b, m)[1], K.one
    while e:
        if e & 1:
            out = K.divmod(K.mul(out, b), m)[1]
        b, e = K.divmod(K.mul(b, b), m)[1], e >> 1
    return out


def _ddf(K: _FqRows, g):
    """Distinct-degree factorisation of a monic squarefree row g of F_q[t]:
    yields (d, g_d) for increasing d, g_d the row of the product of the
    irreducible factors of degree d, for each d that has one.  t^(q^d) mod g
    comes from the previous power by one more Frobenius, t^(q^d) =
    (t^(q^(d-1)))^q."""
    q, t = K.field.order, [1] + [0] * K.w
    h, d = t, 0
    while K.degree(g) >= 2 * (d + 1):
        d += 1
        h = _pow_mod(K, h, q, g)
        gd = K.gcd_rows(K.sub(h, t), g)
        if K.degree(gd) > 0:
            yield d, gd
            g = K.exquo(g, gd)
    if K.degree(g) > 0:
        yield K.degree(g), g


def _edf(K: _FqRows, g, d: int, rng: random.Random) -> list:
    """The irreducible factors of g, a monic row of F_q[t] that is a product
    of distinct irreducibles of degree d (q odd): for a random row h of
    degree < deg g, gcd(g, h^((q^d-1)/2) - 1) is a proper factor with
    probability about 1/2."""
    n = K.degree(g)
    if n == d:
        return [g]
    e, pad = (K.field.order ** d - 1) // 2, [0] * (K.k - 1)
    while True:    # each coefficient a block of k - 1 zeros and k digits
        h = _strip([c for _ in range(n)
                    for c in pad + [rng.randrange(K.p) for _ in range(K.k)]])
        f = K.gcd_rows(K.sub(_pow_mod(K, h, e, g), K.one), g)
        if 0 < K.degree(f) < n:
            return _edf(K, f, d, rng) + _edf(K, K.exquo(g, f), d, rng)


def _factor_rational(f: Poly):
    if f.degree() > 8:
        raise DegreeTooLarge(
            f"factorization over Q limited to degree 8 (got {f.degree()})")
    lead = f.leading()
    if f.degree() == 0:
        return lead, []
    import sympy
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
    Residues, and the irreducibility test of the modulus, are computed on
    its F_q[t] row ``_pi`` (``base.kernel``).  Callers that already know the
    modulus is irreducible pass ``_validate=False``.
    """

    def __init__(self, base: FF, modulus: Poly, _validate: bool = True):
        if modulus.ring.field != base:
            raise ContextMismatch("modulus is not over the base field")
        self.modulus = modulus.monic() if modulus else modulus
        self._pi = base.kernel.rows(self.modulus.coeffs)[0]
        if _validate and not _is_irreducible_ff(base.kernel, self._pi):
            raise UnsupportedField(f"{modulus} is reducible over {base!r}")
        self.base = base
        self.e = modulus.degree()
        self.n = base.degree * self.e
        self.p = base.p
        self._choose_generator()

    def _vec(self, row) -> list[int]:
        """The F_p coordinates of a row of degree < e, block by block."""
        K = self.base.kernel
        r = row[::-1] + [0] * (self.e * K.w)
        return [c for j in range(0, self.e * K.w, K.w) for c in r[j:j + K.k]]

    def _choose_generator(self):
        # theta + c for c in F_q in index order, theta the class of t (c = 0
        # first).  A theta + c that does not generate F = F_q(theta) over F_p
        # lies in a maximal subfield S of F with F_q not in S, as otherwise
        # theta in S and F_q(theta) in S.  The c that put theta + c in S form
        # a coset of the field S and F_q share, a proper subfield of F_q that
        # holds F_p, so at most sqrt(q) of them, in blocks c + F_p of p
        # consecutive indices; F has omega(n) maximal subfields, with n =
        # [F : F_p] and omega(n) the number of distinct primes dividing n.
        # So only the first c of each block is tried, the loop runs out
        # only when omega(n) >= sqrt(q), and it makes at most
        # omega(n) * sqrt(q) / p + 1 eliminations.
        K = self.base.kernel
        theta = K.divmod([1] + [0] * K.w, self._pi)[1]
        for i in range(0, self.base.order, self.p):
            if self._eliminate(K.add(theta, self.base.element_at(i)._row())):
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

    def _eliminate(self, theta) -> bool:
        """Reduce the vectors of theta^0, theta^1, ... (rows) until one
        depends on the earlier ones; True, with the generator set up, if
        that happens only at theta^n."""
        K = self.base.kernel
        self._rows, self._powers = [], []
        power = K.one
        for k in range(self.n + 1):
            combo = [0] * (self.n + 1)
            combo[k] = 1
            vec, combo = self._reduce(self._vec(power), combo)
            pivot = next((i for i, v in enumerate(vec) if v), None)
            if pivot is None:
                if k < self.n:
                    return False
                # dependency sum combo_k theta^k = 0 with combo_n = 1
                self.theta = K.to_poly(self.modulus.ring, theta, K.one)
                self.flat = FF(self.p, tuple(combo), _validate=False)
                return True
            inv = pow(vec[pivot], -1, self.p)
            self._rows.append((pivot, [(v * inv) % self.p for v in vec],
                               [(v * inv) % self.p for v in combo]))
            self._powers.append(power)
            power = K.divmod(K.mul(power, theta), self._pi)[1]

    def to_flat(self, r: Poly) -> FFElement:
        return self.row_to_flat(self.base.kernel.rows(r.coeffs)[0])

    def row_to_flat(self, row) -> FFElement:
        """The image of a row of F_q[t] (``base.kernel``)."""
        # the n rows span everything, so r reduces to 0 and -combo are the
        # coordinates of r on the powers of theta
        K = self.base.kernel
        vec = self._vec(K.divmod(row, self._pi)[1])
        _, combo = self._reduce(vec, [0] * self.n)
        return self.flat.element([-c for c in combo])

    def from_flat(self, x: FFElement) -> Poly:
        if x.field != self.flat:
            raise ContextMismatch("element is not in the flat presentation")
        K = self.base.kernel
        acc = K.zero
        for c, pw in zip(x.coeffs, self._powers):
            if c:
                acc = K.add(acc, K.mul(pw, [c]))
        return K.to_poly(self.modulus.ring, acc, K.one)

