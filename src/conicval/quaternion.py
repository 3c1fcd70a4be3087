"""Quaternion algebras (a,b) over the supported base fields.

Provides square-class normalization with respect to a valuation, residue
algebras, the points of the conic a*x^2 + b*y^2 = z^2 (``conic_points``, over
F_q and Q), splitting tests (finite fields by such a point, Q and F_q(t) by
one lazy loop of local symbols that stops at the first -1), isomorphism
testing over Q, and the decision whether a valuation admits an unramified
extension to the algebra.  One tame symbol serves every nondyadic place with
a finite residue field; over Q only 2 and infinity have their own formulas.

The decision is presentation-independent: square scalings, swapping a and b,
and replacing b by -ab change neither the algebra nor the verdict, which is
enforced by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import integers
from .errors import (InvariantViolated, NotUnitUnit, UnsupportedField,
                     UnsupportedPlace, ZeroInput)
from .fields import (FF, QQ, FunctionField, RationalField, factor,
                     is_square, square_class_reduce)
from .valuation import (InfinitePlaceValuation, PAdicValuation, PlaceValuation,
                        Valuation, _int_order)


class QuaternionAlgebra:
    """The four-dimensional algebra with i^2 = a, j^2 = b, ij = -ji."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = field.coerce(a)
        self.b = field.coerce(b)
        if not self.a or not self.b:
            raise ZeroInput("quaternion symbols must be nonzero")

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra) and other.field == self.field
                and other.a == self.a and other.b == self.b)

    def __repr__(self):
        return f"({self.a}, {self.b})_{self.field!r}"


UNIT_UNIT = "unit_unit"
ODD_UNIT = "odd_unit"


@dataclass(frozen=True)
class NormalizedPresentation:
    a: object
    b: object
    shape: str              # unit_unit or odd_unit
    transcript: tuple       # replayable moves


def _strip_entry(e, v: Valuation, tag: str, moves: list):
    """Square-class reduce e and bring v(e) into {0, 1}, recording moves."""
    r, s = square_class_reduce(e, v.domain)
    if s != v.domain.coerce(1):
        moves.append((f"scale_{tag}", 1 / s))
    m = int(v.value_of(r).fraction)
    k = m // 2    # floor division: m - 2k is 0 or 1 for every m
    if k:
        c = v.uniformizer ** (-k)
        moves.append((f"scale_{tag}", c))
        r = r * c * c
    if int(v.value_of(r).fraction) not in (0, 1):
        raise InvariantViolated(f"square-class representative {r} has value "
                                "outside {0, 1}")
    return r


def normalize(q: QuaternionAlgebra, v: Valuation) -> NormalizedPresentation:
    """Isomorphic presentation with v(a) in {0,1} and v(b) = 0.

    Moves used: scaling an entry by a square, swapping the entries, and
    replacing b by -ab; the transcript replays to the returned pair."""
    moves: list = []
    a = _strip_entry(q.a, v, "a", moves)
    b = _strip_entry(q.b, v, "b", moves)
    pa = int(v.value_of(a).fraction)
    pb = int(v.value_of(b).fraction)
    if (pa, pb) == (0, 1):
        a, b = b, a
        moves.append(("swap",))
        pa, pb = pb, pa
    if (pa, pb) == (1, 1):
        b = -a * b
        moves.append(("neg_ab",))
        b = _strip_entry(b, v, "b", moves)
        pb = int(v.value_of(b).fraction)
    shape = UNIT_UNIT if pa == 0 else ODD_UNIT
    if pb != 0:
        raise InvariantViolated(f"normalized b has value {pb}, not 0")
    return NormalizedPresentation(a, b, shape, tuple(moves))


def replay_transcript(q: QuaternionAlgebra, transcript) -> tuple:
    """Apply the recorded moves to (q.a, q.b); used to audit normalize."""
    a, b = q.a, q.b
    for move in transcript:
        if move[0] == "scale_a":
            a = a * move[1] * move[1]
        elif move[0] == "scale_b":
            b = b * move[1] * move[1]
        elif move[0] == "swap":
            a, b = b, a
        elif move[0] == "neg_ab":
            b = -a * b
        else:
            raise ZeroInput(f"unknown move {move!r}")
    return a, b


def residue_algebra(q: QuaternionAlgebra, v: Valuation) -> QuaternionAlgebra:
    """(abar, bbar) over the residue field, defined for unit/unit shape only."""
    np = normalize(q, v)
    if np.shape != UNIT_UNIT:
        raise NotUnitUnit(
            f"v({np.a}) is odd after normalization; no residue algebra")
    return QuaternionAlgebra(v.residue_field, v.residue_of(np.a),
                             v.residue_of(np.b))


# ---------------------------------------------------------------------------
# local symbols
# ---------------------------------------------------------------------------


def _local_symbol(a, b, w: Valuation) -> int:
    """The tame symbol (a, b) at a nondyadic place w with finite residue
    field: with a = pi^alpha * u and b = pi^beta * u' for units u and u',
    (-1)^(alpha*beta) * ubar^beta * u'bar^alpha, each factor sent to +-1 by
    Euler's criterion."""
    alpha = int(w.value_of(a).fraction)
    beta = int(w.value_of(b).fraction)
    k = w.residue_field
    exp = (k.order - 1) // 2

    def chi(r):
        return 1 if r ** exp == k.one() else -1

    s = 1
    if alpha % 2 and beta % 2:
        s *= chi(k.from_int(-1))
    if beta % 2:
        s *= chi(w.residue_of(w.unit_part(a)[1]))
    if alpha % 2:
        s *= chi(w.residue_of(w.unit_part(b)[1]))
    return s


def _unit_mod(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _split_2(x: Fraction) -> tuple[int, Fraction]:
    """(m, u) with x = 2^m * u and u's numerator and denominator odd."""
    m, n = _int_order(x.numerator, 2), _int_order(x.denominator, 2)
    return m - n, Fraction(x.numerator >> m, x.denominator >> n)


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a,b) over Q at a prime or at infinity.

    +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the completion.
    Only 2 and "inf" are special; an odd prime takes the tame symbol of its
    p-adic valuation; any place but an int or "inf" raises UnsupportedPlace.
    """
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ZeroInput("Hilbert symbol of zero")
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int):
        raise UnsupportedPlace(f"place {place!r} is neither an int nor 'inf'")
    if place != 2:
        return _local_symbol(a, b, PAdicValuation(place))
    alpha, u = _split_2(a)
    beta, w = _split_2(b)
    u8, w8 = _unit_mod(u, 8), _unit_mod(w, 8)
    eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
    om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def _odd_primes(values):
    """The odd primes dividing a numerator or denominator of the values,
    ascending.  One pass of trial division (``integers.trial_division``)
    finds those below 2^12, and a cofactor below 2^24 is prime; the small
    primes are yielded before ``integers.factor_cofactor`` runs on the
    larger cofactors left over (Brent's rho below 10^23, p-1, capped rho and
    ECM from there up, ``sympy.factorint`` only past 50 curves; primality
    proven by strong tests below 3.3*10^24), so a consumer that stops early
    skips the factoring."""
    found, rest = set(), set()
    for x in map(Fraction, values):
        for n in (abs(x.numerator), x.denominator):
            small, n = integers.trial_division(n)
            found.update(small)
            if n > 1:
                (found if n < integers.ROUGH_PRIME_BOUND else rest).add(n)
    found.discard(2)
    if rest:
        yield from sorted(p for p in found if p < integers.TRIAL_BOUND)
        found = {p for p in found if p > integers.TRIAL_BOUND}
        for n in rest:
            found.update(integers.factor_cofactor(n))
    yield from sorted(found)


def rational_support(*values) -> list[int]:
    """Odd primes at which some value has nonzero order, ascending."""
    return list(_odd_primes(values))


def _rational_places(*values):
    """The places of Q where a Hilbert symbol of the values can be -1, in
    order: infinity, 2 and, lazily, the odd primes supporting them."""
    yield from ("inf", 2)
    yield from _odd_primes(values)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    split: bool
    certificate: tuple | None = None    # point (x, y, z) with ax^2+by^2=z^2
    failing_place: str | None = None    # a place with symbol -1
    symbols: tuple | None = None        # places consulted, up to failing_place
    note: str | None = None

    def as_dict(self):
        return {
            "split": self.split,
            "certificate": None if self.certificate is None
            else [str(c) for c in self.certificate],
            "failing_place": self.failing_place,
            "symbols": None if self.symbols is None
            else {pl: s for pl, s in self.symbols},
            "note": self.note,
        }


def is_split(q: QuaternionAlgebra) -> SplitResult:
    """Splitting test with certificate.

    Finite fields: always split; the certificate is the first point of
    ``conic_points`` with every coordinate nonzero, else its first point.
    Q and F_q(t): one loop over the places where the local symbol can be -1
    (over Q infinity, 2 and the odd primes supporting a and b, ascending;
    over F_q(t) the irreducible factors of num and den of a, then of b, then
    infinity), factoring only as far as it gets.  It stops at the first -1,
    which alone makes a division algebra, and names that place; `symbols`
    lists the places consulted, in order, up to and including failing_place.
    At every other place the symbol is +1, so when every listed symbol is +1
    the algebra splits locally everywhere, hence globally, and over Q the
    certificate is the first point of ``conic_points``.
    """
    field = q.field
    if isinstance(field, FF):
        points = conic_points(q.a, q.b, field)
        first = next(points)
        return SplitResult(split=True, certificate=first if all(first) else
                           next((p for p in points if all(p)), first))
    symbols = []
    for place, s in _local_symbols(q):
        symbols.append((place, s))
        if s == -1:
            return SplitResult(split=False, failing_place=place,
                               symbols=tuple(symbols))
    symbols = tuple(symbols)
    if isinstance(field, FunctionField):
        return SplitResult(split=True, symbols=symbols,
                           note="split at every place supporting a and b")
    point = next(conic_points(q.a, q.b, field), None)
    if point is None:
        raise InvariantViolated(f"({q.a}, {q.b}) splits at every place, "
                                "but descent found no point")
    return SplitResult(split=True, certificate=point, symbols=symbols)


def _local_symbols(q: QuaternionAlgebra):
    """(place, local symbol of (a, b)), lazily, at every place of q's field
    where the symbol can be -1, in the order is_split names them."""
    field, a, b = q.field, q.a, q.b
    if isinstance(field, RationalField):
        for pl in _rational_places(a, b):
            yield str(pl), hilbert_symbol(a, b, pl)
        return
    if not (isinstance(field, FunctionField)
            and isinstance(field.coefficient_field, FF)):
        raise UnsupportedField(f"splitting over {field!r} is not decidable here")
    seen = set()
    for poly in (a.num, a.den, b.num, b.den):
        if poly.degree() > 0:
            for g, _ in factor(poly)[1]:
                if g not in seen:
                    seen.add(g)
                    yield str(g), _local_symbol(
                        a, b, PlaceValuation(field, g, _validate=False))
    yield "inf", _local_symbol(a, b, InfinitePlaceValuation(field))


def diop_ternary_quadratic_normal(eq):
    """sympy's Legendre descent on eq = A*X^2 + B*Y^2 - Z^2, imported when
    it is first needed; ``conic_points`` looks this name up on each call."""
    from sympy.solvers.diophantine.diophantine import \
        diop_ternary_quadratic_normal as descent
    return descent(eq)


SCAN_HEIGHT = 200  # height of conic_points' scan over Q, before the descent


def rational_scan(a, b, height: int):
    """The points (x, y, z) of a*x^2 + b*y^2 = z^2 over Q with integers
    x, y >= 0, not both 0, by height max(x, y) <= height: at height h the
    pairs (0, h), ..., (h, h), then (h, 0), ..., (h, h - 1), each with z the
    integer root of a*x^2 + b*y^2 = (A*x^2 + B*y^2)/d when it has one."""
    a, b = Fraction(a), Fraction(b)
    A, B = a.numerator * b.denominator, b.numerator * a.denominator
    d = a.denominator * b.denominator
    for h in range(height + 1):
        for x, y in [(x, h) for x in range(h + 1)] + [(h, y) for y in range(h)]:
            n = A * x * x + B * y * y
            if (x or y) and n >= 0 and n % d == 0:
                r = math.isqrt(n // d)
                if r * r == n // d:
                    yield Fraction(x), Fraction(y), Fraction(r)


def conic_points(a, b, k):
    """The nontrivial points (x, y, z) of a*x^2 + b*y^2 = z^2 over k, lazily
    in a fixed order; each caller takes the first point it can use.

    Over F_q: (x, 1, z) for x = 1, 2, ... in index order, z the root of least
    index (Euler's test and Tonelli-Shanks), then (0, 1, sqrt(b)) and
    (1, 0, sqrt(a)) if they exist.  Over Q: the points of ``rational_scan``
    up to height SCAN_HEIGHT; then one Legendre descent (Cremona and Rusin,
    Math. Comp. 72, 2003), run by sympy on the squarefree r_a, r_b of a = r_a*s_a^2 and
    b = r_b*s_b^2, mapped back to (X/s_a, Y/s_b, Z) and verified.  It yields
    nothing only for a conic without points.
    """
    if isinstance(k, FF):
        one = k.one()
        for xi in range(1, k.order):
            x = k.element_at(xi)
            z = k.sqrt(a * x * x + b)
            if z is not None:
                yield x, one, z
        for x, y, c in ((k.zero(), one, b), (one, k.zero(), a)):
            z = k.sqrt(c)
            if z is not None:
                yield x, y, z
        return
    if not isinstance(k, RationalField):
        raise UnsupportedField(f"no conic point search over {k!r}")
    a, b = Fraction(a), Fraction(b)
    yield from rational_scan(a, b, SCAN_HEIGHT)
    (ra, sa), (rb, sb) = square_class_reduce(a, QQ), square_class_reduce(b, QQ)
    import sympy
    X, Y, Z = sympy.symbols("X Y Z")
    x, y, z = diop_ternary_quadratic_normal(
        int(ra) * X ** 2 + int(rb) * Y ** 2 - Z ** 2)
    if x is None:
        return
    x, y, z = Fraction(int(x)) / sa, Fraction(int(y)) / sb, Fraction(int(z))
    if a * x * x + b * y * y != z * z or not any((x, y, z)):
        raise InvariantViolated(f"Legendre descent returned {(x, y, z)}, "
                                f"not a point of ({a}, {b})")
    yield x, y, z


def quaternion_isomorphic(q1: QuaternionAlgebra, q2: QuaternionAlgebra) -> bool:
    """Isomorphism over Q: equality of Hilbert symbols at every relevant place
    (the ramification set determines the algebra)."""
    if not isinstance(q1.field, RationalField) or not isinstance(q2.field, RationalField):
        raise UnsupportedField("isomorphism testing is implemented over Q only")
    return all(hilbert_symbol(q1.a, q1.b, pl) == hilbert_symbol(q2.a, q2.b, pl)
               for pl in _rational_places(q1.a, q1.b, q2.a, q2.b))


# ---------------------------------------------------------------------------
# the extension decision
# ---------------------------------------------------------------------------

UNRAMIFIED_EXTENSION = "unramified_extension"
RAMIFIED_ONLY = "ramified_only"
NO_EXTENSION_SPLIT_RESIDUE = "no_extension_split_residue"
NO_EXTENSION_ALGEBRA_SPLIT = "no_extension_algebra_split"


@dataclass(frozen=True)
class ExtensionVerdict:
    kind: str
    normalization: NormalizedPresentation
    residue_algebra: QuaternionAlgebra | None = None
    witness: dict | None = None

    def as_dict(self):
        w = {}
        for key, val in (self.witness or {}).items():
            if isinstance(val, SplitResult):
                w[key] = val.as_dict()
            elif isinstance(val, tuple):
                w[key] = [str(c) for c in val]
            else:
                w[key] = str(val)
        return {
            "kind": self.kind,
            "normalized": [str(self.normalization.a), str(self.normalization.b)],
            "shape": self.normalization.shape,
            "transcript": [[str(part) for part in move]
                           for move in self.normalization.transcript],
            "residue_algebra": None if self.residue_algebra is None
            else [str(self.residue_algebra.a), str(self.residue_algebra.b)],
            "witness": w,
        }


def _global_split(q: QuaternionAlgebra) -> SplitResult | None:
    """Splitting of q over its base field, when decidable; None otherwise.

    Over Q(t) only the trivial certificates are consulted: a, b or -ab a
    square makes the algebra split; anything deeper is out of scope."""
    field = q.field
    if isinstance(field, RationalField) or (
            isinstance(field, FunctionField)
            and isinstance(field.coefficient_field, FF)):
        return is_split(q)
    if isinstance(field, FunctionField):
        for tag, cand in (("a", q.a), ("b", q.b), ("-ab", -q.a * q.b)):
            ok, root = is_square(cand, field)
            if ok:
                return SplitResult(split=True,
                                   note=f"{tag} = ({root})^2 is a square")
    return None


def decide_unramified_extension(q: QuaternionAlgebra,
                                v: Valuation) -> ExtensionVerdict:
    """Does v extend to an unramified valuation on the quaternion algebra?

    unit/unit shape: yes iff the residue algebra is division; a split residue
    gives a conic point witness.  odd/unit shape: the quadratic subfield
    E(sqrt(b)) ramifies (verdict ramified_only) unless bbar is a square, in
    which case that subfield acquires two extensions and no valuation on the
    algebra can exist.  A base-field splitting certificate upgrades either
    negative verdict to no_extension_algebra_split.
    """
    np = normalize(q, v)
    if np.shape == UNIT_UNIT:
        qbar = QuaternionAlgebra(v.residue_field, v.residue_of(np.a),
                                 v.residue_of(np.b))
        sr = is_split(qbar)
        if not sr.split:
            return ExtensionVerdict(UNRAMIFIED_EXTENSION, np, qbar,
                                    {"residue_division": sr})
        witness = {"residue_split": sr}
    else:
        qbar, bbar = None, v.residue_of(np.b)
        sq, root = is_square(bbar, v.residue_field)
        if not sq:
            return ExtensionVerdict(RAMIFIED_ONLY, np, None,
                                    {"nonsquare_residue": bbar})
        witness = {"sqrt_of_residue": root,
                   "split_subfield": f"E(sqrt({np.b}))"}
    glob = _global_split(q)
    if glob is not None and glob.split:
        return ExtensionVerdict(NO_EXTENSION_ALGEBRA_SPLIT, np, qbar,
                                {"algebra_split": glob})
    return ExtensionVerdict(NO_EXTENSION_SPLIT_RESIDUE, np, qbar, witness)
