"""Independent brute-force verifiers.

Each oracle recomputes a quantity by a route deliberately different from the
implementation it cross-checks (exhaustive enumeration, Hensel lifting,
linear algebra), validates its own output by exact substitution, and reports
deterministically for a fixed seed.

Every cross-check (``valuation_axiom_fuzz`` and each ``verify`` suite of the
CLI) is a stream of checks fed to ``run_checks``, the one loop that counts
the agreeing checks, stops at the first counterexample and builds the report.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolated, PrecisionTooLow, ZeroInput
from .fields import (FF, FunctionField, PolyRing, RatFunc, RationalField,
                     infer_context)
from .quaternion import SCAN_HEIGHT, rational_scan
from .value import INFINITY
from .valuation import PAdicValuation, Valuation


@dataclass(frozen=True)
class OracleReport:
    name: str
    inputs_digest: str
    agreement: bool
    checked: int
    counterexample: tuple | None = None

    def as_dict(self):
        return {
            "name": self.name,
            "inputs_digest": self.inputs_digest,
            "agreement": self.agreement,
            "checked": self.checked,
            "counterexample": None if self.counterexample is None
            else [str(c) for c in self.counterexample],
        }


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# isotropy of ax^2 + by^2 = z^2
# ---------------------------------------------------------------------------


def isotropy_search(a, b, bound: int = SCAN_HEIGHT):
    """First nontrivial (x, y, z) with a*x^2 + b*y^2 = z^2, or None.

    Finite fields are searched exhaustively, taking no square roots, unlike
    the Euler test and Tonelli-Shanks of ``is_split``; over Q it is the
    first point of ``quaternion.rational_scan`` of height <= bound, which
    ``is_split`` does not consult to decide.  Hits are verified by
    substitution.
    """
    ctx = infer_context(a)
    if isinstance(ctx, FF):
        point = _isotropy_ff(a, b, ctx)
    elif isinstance(ctx, RationalField):
        point = next(rational_scan(a, b, bound), None)
    else:
        raise ZeroInput(f"isotropy search unsupported over {ctx!r}")
    if point is not None:
        x, y, z = point
        if a * x * x + b * y * y != z * z or not any((x, y, z)):
            raise InvariantViolated(f"isotropy search returned {point}, "
                                    "not a nontrivial point")
    return point


def _isotropy_ff(a, b, k: FF):
    for xi in range(k.order):
        x = k.element_at(xi)
        for yi in range(k.order):
            y = k.element_at(yi)
            if xi == 0 and yi == 0:
                continue
            t = a * x * x + b * y * y
            for zi in range(k.order):
                z = k.element_at(zi)
                if z * z == t:
                    return x, y, z
    return None


# ---------------------------------------------------------------------------
# degree of E(x) over E(Y) by linear algebra
# ---------------------------------------------------------------------------


def degree_oracle(y: RatFunc) -> int:
    """Degree of the minimal polynomial of x over F_p(Y).

    Works in F_p(Y)[T] modulo H(T) = f(T) - Y*g(T) and finds the first linear
    dependency among the reduced powers of T by Gaussian elimination; no
    degree formula is consulted.
    """
    field = y.field
    if y.degree() < 1:
        raise ZeroInput("constant pivot")
    K = FunctionField(field.ring.field, "Y")
    Yel = K.gen()
    TR = PolyRing(K, "T")
    f, g = y.num, y.den
    n = max(f.degree(), g.degree())
    hcoeffs = []
    for k in range(n + 1):
        fk = f.coeffs[k] if k <= f.degree() else field.ring.field.zero()
        gk = g.coeffs[k] if k <= g.degree() else field.ring.field.zero()
        hcoeffs.append(K.coerce(fk) - Yel * K.coerce(gk))
    H = TR.poly(hcoeffs)
    if H.degree() != n:
        raise InvariantViolated(f"f(T) - Y*g(T) has degree {H.degree()}, not {n}")
    rows = []   # (pivot index, reduced vector over K)
    cur = TR.one()
    for m in range(n + 1):
        vec = [cur.coeffs[i] if i <= cur.degree() else K.zero()
               for i in range(n)]
        for pivot, rvec in rows:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, rvec)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            return m
        inv = K.one() / vec[pivot]
        rows.append((pivot, [v * inv for v in vec]))
        cur = (cur * TR.gen()) % H
    return n


# ---------------------------------------------------------------------------
# number of square roots over the p-adic completion
# ---------------------------------------------------------------------------


def hensel_count(v: PAdicValuation, a, precision: int = 6) -> int:
    """Number of roots of T^2 - a over the p-adic completion (0 or 2),
    determined by lifting a residue root through ``precision`` digits."""
    if precision < 4:
        raise PrecisionTooLow("need at least 4 p-adic digits")
    a = Fraction(a)
    if not a:
        raise ZeroInput("square roots of zero")
    p = v.p
    val = v.value_of(a).fraction
    if val % 2:
        return 0
    _, u = v.unit_part(a)
    mod = p ** precision
    den_inv = pow(u.denominator % mod, -1, mod)
    ui = (u.numerator % mod) * den_inv % mod
    r = next((r0 for r0 in range(p) if (r0 * r0 - ui) % p == 0), None)
    if r is None:
        return 0
    for k in range(2, precision + 1):
        pk = p ** k
        # Newton step: r <- r - (r^2 - u) / (2r) mod p^k
        r = (r - (r * r - ui) * pow(2 * r % pk, -1, pk)) % pk
    if (r * r - ui) % mod:
        raise InvariantViolated(f"Hensel lift {r} is no root of T^2 - u mod {mod}")
    return 2


# ---------------------------------------------------------------------------
# valuation axiom fuzzing
# ---------------------------------------------------------------------------


def sample_rational(rng: random.Random, height: int = 30) -> Fraction:
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)


def sample_field_element(rng: random.Random, ctx, nonzero: bool = False):
    while True:
        if isinstance(ctx, RationalField):
            x = sample_rational(rng)
        elif isinstance(ctx, FF):
            x = ctx.element_at(rng.randrange(ctx.order))
        elif isinstance(ctx, FunctionField):
            x = sample_ratfunc(rng, ctx, num_degree=2, den_degree=1)
        else:
            raise ZeroInput(f"no sampler for {ctx!r}")
        if x or not nonzero:
            return x


def sample_poly(rng: random.Random, ring, degree: int):
    return ring.poly([sample_field_element(rng, ring.field)
                      for _ in range(rng.randint(1, degree + 1))])


def sample_ratfunc(rng: random.Random, field: FunctionField,
                   num_degree: int = 2, den_degree: int = 2) -> RatFunc:
    num = sample_poly(rng, field.ring, num_degree)
    den = field.ring.zero()
    while not den:
        den = sample_poly(rng, field.ring, den_degree)
    return RatFunc(field, num, den)


def sample_conic_element(rng: random.Random, cf, max_degree: int = 2):
    """A nonzero element f + g*s of the conic function field cf, with f and
    g mostly polynomials in x, else rational functions."""
    from .conic import ConicFieldElement

    def part():
        if rng.random() < 0.75:
            return cf.ef.from_poly(sample_poly(rng, cf.ef.ring, max_degree))
        return sample_ratfunc(rng, cf.ef, max_degree, 1)

    while True:
        el = ConicFieldElement(cf, part(), part())
        if el:
            return el


def default_sampler(target):
    """Element generator appropriate to the valuation-like target."""
    from .conic import DistinguishedExtension

    if isinstance(target, DistinguishedExtension):
        return lambda rng: sample_conic_element(rng, target.conic_field)
    if isinstance(target, Valuation):
        return lambda rng: sample_field_element(rng, target.domain)
    raise ZeroInput(f"no sampler for {target!r}")


def run_checks(name: str, inputs_digest: str, checks) -> OracleReport:
    """The report of a stream of checks: each item of ``checks`` is None
    for a check that agrees, else its counterexample.  The agreeing checks
    are counted up to the first counterexample, where the run stops."""
    checked = 0
    for bad in checks:
        if bad is not None:
            return OracleReport(name, inputs_digest, False, checked, bad)
        checked += 1
    return OracleReport(name, inputs_digest, True, checked)


def valuation_axiom_fuzz(target, samples: int = 1000, seed: int = 0,
                         sampler=None, name: str | None = None) -> OracleReport:
    """Check v(xy) = v(x) + v(y) exactly and the ultrametric inequality
    (with equality for distinct values) on random nonzero pairs; zero
    samples make a report of zero checks."""
    if samples < 0:
        raise ZeroInput(f"negative sample count {samples}")
    if sampler is None:
        sampler = default_sampler(target)
    name = name or f"valuation_axioms[{getattr(target, 'describe', target.__repr__)()}]"
    return run_checks(name, _digest(name, samples, seed),
                      _axiom_checks(target, sampler, random.Random(seed),
                                    samples))


def _axiom_checks(target, sampler, rng, samples):
    """One check per pair with no zero; x and y are drawn for every pair."""
    for _ in range(samples):
        x = sampler(rng)
        y = sampler(rng)
        if not x or not y:
            continue
        vx, vy = target.value_of(x), target.value_of(y)
        if target.value_of(x * y) != vx + vy:
            yield x, y, "multiplicativity"
            continue
        s = x + y
        vs = target.value_of(s) if s else INFINITY
        if vs < min(vx, vy):
            yield x, y, "ultrametric"
        elif vx != vy and vs != min(vx, vy):
            yield x, y, "ultrametric equality"
        else:
            yield None
