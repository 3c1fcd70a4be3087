"""Primality, perfect powers and factoring of plain ints, for Q.

Over Q the splitting question is answered by Hilbert symbols at the primes
dividing a and b, so these routines sit on the decision path.  They run on
Python ints and import sympy only in two cases:

* ``is_prime`` runs strong probable-prime tests to the 13 prime bases
  2, ..., 41, which prove primality below 3317044064679887385961981, about
  3.3*10^24 (Sorenson and Webster, Math. Comp. 86, 2017); from that bound
  up a witness proves n composite, and ``sympy.isprime`` decides a number
  that passes all 13 tests.
* ``factorint`` divides out the primes below 2^12 in one pass
  (``trial_division``) and factors what is left (``factor_cofactor``) by a
  primality test, integer roots and a split of each composite part.  Below
  10^23 the split is Pollard's rho with Brent's cycle finding (Brent, BIT
  20, 1980).  From 10^23 up it is one stage of Pollard's p-1, rho capped
  at 2^13 steps, then Lenstra's elliptic curve method (Ann. of Math. 126,
  1987) on Montgomery's x-only curves (Math. Comp. 48, 1987), with the
  bounds B1 = 10^4 and B2 = 10^6, the 50 curves and the seeded sigma
  stream of ``sympy.factorint``'s first ECM round.  Only a part that those
  50 curves leave unsplit goes to ``sympy.factorint``.

The ECM stage-1 exponent and the stage-2 sieve (about 1 MB) are built in
each call and dropped on return; nothing is built at import or kept.
"""

from __future__ import annotations

import itertools
import math
import random

TRIAL_BOUND = 1 << 12
# a cofactor of trial division below this bound is 1 or a prime: a
# composite without a prime factor below 2^12 is at least 4099^2
ROUGH_PRIME_BOUND = TRIAL_BOUND * TRIAL_BOUND
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_LIMIT = 10 ** 23
_RHO_BATCH = 128
_RHO_STEPS = 1 << 13    # rho's step cap from 10^23 up, before ECM
# ECM: the bounds and curve count of sympy.factorint's first ECM round
_ECM_B1, _ECM_B2, _ECM_CURVES = 10 ** 4, 10 ** 6, 50
_ECM_D = 2310           # 2*3*5*7*11, the giant step of stage 2


def _odd_primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * (n // 2)       # index i stands for 2*i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, n // 2, p)))
    return list(itertools.compress(range(1, n, 2), sieve))


_SMALL_ODD_PRIMES = _odd_primes_below(TRIAL_BOUND)


def is_prime(n: int) -> bool:
    """Whether n is prime: proven by strong tests to the bases 2, ..., 41
    below 3.3*10^24.  From there up a witness among those bases proves n
    composite, and ``sympy.isprime`` decides a probable prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        import sympy
        return bool(sympy.isprime(n))
    return True


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by Newton's method on ints."""
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # start above the root; the iterates then fall to its floor
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rough_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k and k largest, for m without a prime factor
    below 2^12: then r > 2^12, so k <= bits(m)/12."""
    kmax = m.bit_length() // 12
    for k in itertools.takewhile(kmax.__ge__,
                                 itertools.chain((2,), _SMALL_ODD_PRIMES)):
        r = integer_root(m, k)
        if r ** k == m:
            r, j = _rough_power(r)
            return r, j * k
    return m, 1


def perfect_power(n: int) -> tuple[int, int] | None:
    """(b, e) with n = b^e and e > 1 largest, or None, for n >= 2; as
    ``sympy.perfect_power``, with None for its False."""
    small, m = trial_division(n)
    e = math.gcd(*small.values())
    if m > 1:
        e = math.gcd(e, _rough_power(m)[1] if m >= ROUGH_PRIME_BOUND else 1)
    return (integer_root(n, e), e) if e > 1 else None


def trial_division(n: int) -> tuple[dict[int, int], int]:
    """({p: exponent} over the primes p below 2^12 that divide n, cofactor)
    for n >= 1.  The division stops once p^2 exceeds what is left, so the
    cofactor is 1, a prime, or has no prime factor below 2^12; below
    ``ROUGH_PRIME_BOUND`` it is 1 or a prime."""
    small = {}
    if not n & 1:
        e = (n & -n).bit_length() - 1
        small[2] = e
        n >>= e
    for p in _SMALL_ODD_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            small[p] = e
    return small, n


def factor_cofactor(m: int) -> dict[int, int]:
    """{prime: exponent} for m >= 2^24 without a prime factor below 2^12.

    Each part is tested for primality, then for a perfect power, then
    split: below 10^23 by ``_brent_rho``, from 10^23 up by ``_split_big``
    (Pollard p-1, rho capped at ``_RHO_STEPS`` steps, then ECM on
    ``sympy.factorint``'s first round of 50 curves).  The factors found go
    back into the parts; they are again without a prime factor below 2^12,
    so those below 2^24 are prime.  A part that ECM does not split is
    handed to ``sympy.factorint``.
    """
    factors = {}
    parts = [(m, 1)]
    while parts:
        m, e = parts.pop()
        if m < ROUGH_PRIME_BOUND or is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        r, k = _rough_power(m)
        if k > 1:
            parts.append((r, e * k))
            continue
        d = _brent_rho(m) if m < _RHO_LIMIT else _split_big(m)
        if d is None:
            import sympy
            for p, j in sympy.factorint(m).items():
                factors[int(p)] = factors.get(int(p), 0) + e * j
        else:
            parts += [(d, e), (m // d, e)]
    return factors


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1: trial division, then
    ``factor_cofactor`` on a cofactor of 2^24 or more."""
    factors, m = trial_division(n)
    if m >= ROUGH_PRIME_BOUND:
        factors.update(factor_cofactor(m))
    elif m > 1:
        factors[m] = 1
    return factors


def _brent_rho(n: int, max_steps: float = math.inf) -> int | None:
    """A proper factor of n, an odd composite that is no perfect power, or
    None once about max_steps steps of y have found none.

    Pollard's rho on y -> y^2 + c for c = 1, 2, ... from y = 2, with Brent's
    cycle finding: x is held at y_(r-1) for r = 1, 2, 4, ... while y walks
    on, and the differences x - y are multiplied mod n, _RHO_BATCH at a
    time, before one gcd with n.  A batch whose gcd is n is retraced step
    by step; if that still gives n, the next c is tried.  A round of r
    costs 2r steps and is not begun past the cap.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            max_steps -= 2 * r
            if max_steps < 0:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _split_big(n: int) -> int | None:
    """A proper factor of n >= 10^23, an odd composite that is no perfect
    power, or None: one stage of Pollard's p-1 to the base 2 with the ECM
    exponent K, rho capped at ``_RHO_STEPS`` steps, then ``_ecm``."""
    k = _ecm_exponent()
    g = math.gcd(pow(2, k, n) - 1, n)
    if 1 < g < n:
        return g
    return _brent_rho(n, _RHO_STEPS) or _ecm(n, k)


def _ecm_exponent() -> int:
    """K, the product of the largest power p^e <= B1 of each prime p <= B1."""
    k = 1
    for p in itertools.chain((2,), _odd_primes_below(_ECM_B1 + 1)):
        q = p
        while q * p <= _ECM_B1:
            q *= p
        k *= q
    return k


def _ladder(x: int, z: int, k: int, a24: int, n: int):
    """(k*P, (k+1)*P) for k >= 1 and the point P = (x : z) of the curve
    B*y^2 = x^3 + A*x^2 + x mod n with a24 = (A + 2)/4, by Montgomery's
    x-only ladder (Math. Comp. 48, 1987); points are projective pairs."""
    xq, zq = x, z
    s, d = (x + z) * (x + z) % n, (x - z) * (x - z) % n
    xr, zr = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    for bit in bin(k)[3:]:
        # Q + R, whose difference is P, and the double of R or of Q, inline
        # rather than by _add: this loop is the cost of ECM's stage 1
        u = (xq - zq) * (xr + zr)
        v = (xq + zq) * (xr - zr)
        xs, zs = (u + v) % n, (u - v) % n
        xs, zs = z * xs * xs % n, x * zs * zs % n
        if bit == "1":
            s, d = (xr + zr) * (xr + zr) % n, (xr - zr) * (xr - zr) % n
            xq, zq = xs, zs
            xr, zr = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        else:
            s, d = (xq + zq) * (xq + zq) % n, (xq - zq) * (xq - zq) % n
            xr, zr = xs, zs
            xq, zq = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    return (xq, zq), (xr, zr)


def _add(p, q, diff, n: int):
    """p + q from p, q and diff = p - q, all projective (x : z)."""
    u = (p[0] - p[1]) * (q[0] + q[1])
    v = (p[0] + p[1]) * (q[0] - q[1])
    s, d = (u + v) % n, (u - v) % n
    return diff[1] * s * s % n, diff[0] * d * d % n


def _ecm(n: int, k: int) -> int | None:
    """A proper factor of n, an odd composite, found by Lenstra's elliptic
    curve method (Ann. of Math. 126, 1987) on Montgomery curves with
    Suyama's parametrisation, or None after ``_ECM_CURVES`` curves.

    The bounds, the curve count and the sigma stream
    ``random.Random(B1).randint(6, n - 1)`` are those of the first round of
    ``sympy.factorint`` (its ``_ecm_one_factor(n, B1, B2, 50, seed=B1)``),
    and stage 1 computes the same point K*P mod n, so a curve that splits n
    there splits it here.  Stage 2 (``_ecm_stage2``) covers every prime of
    (B1, B2 + D], a superset of sympy's range.
    """
    rng = random.Random(_ECM_B1)
    plan = None
    for _ in range(_ECM_CURVES):
        sigma = rng.randint(6, n - 1)
        u, v = (sigma * sigma - 5) % n, 4 * sigma % n
        u3 = pow(u, 3, n)
        try:
            inv = pow(16 * u3 * v, -1, n)
        except ValueError:
            g = math.gcd(2 * u3 * v, n)
            if g == n:
                continue
            return g
        a24 = pow(v - u, 3, n) * (3 * u + v) * inv % n
        # P = (u^3 : v^3) = (u^3 / v^3 : 1); v is a unit, as 16*u^3*v is
        (x, z), _ = _ladder(u3 * pow(v, -3, n) % n, 1, k, a24, n)
        g = math.gcd(z, n)
        if g == 1:
            plan = plan or _stage2_plan()
            g = _ecm_stage2((x, z), a24, n, plan)
        if 1 < g < n:
            return g
    return None


def _stage2_plan() -> tuple[int, list[bytes]]:
    """(c0, masks) for stage 2: giant step i sits at c = c0 + i*D, and byte
    j - 1 of masks[i] is 1 when c - j or c + j is a prime of (B1, B2 + D],
    for j = 1, ..., D/2; such a j is prime to D.  Built on a sieve of
    about 1 MB, which is dropped on return."""
    d, h = _ECM_D, _ECM_D // 2
    top = _ECM_B2 + d
    lo, hi = (_ECM_B1 + h) // d * d, (top + h) // d * d
    size = hi + h + 1
    sieve = bytearray([1]) * size
    for p in range(2, math.isqrt(size) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    sieve[:_ECM_B1 + 1] = bytes(_ECM_B1 + 1)
    sieve[top + 1:] = bytes(size - top - 1)
    masks = []
    for c in range(lo, hi + 1, d):
        up = int.from_bytes(sieve[c + 1:c + h + 1], "big")
        down = int.from_bytes(sieve[c - h:c][::-1], "big")
        masks.append((up | down).to_bytes(h, "big"))
    return lo, masks


def _ecm_stage2(q, a24: int, n: int, plan) -> int:
    """gcd(n, prod (x(c*Q) - x(j*Q))) over the pairs (c, j) of the plan,
    by the baby-step giant-step continuation: x(c*Q) = x(j*Q) mod a prime
    of n when (c - j)*Q or (c + j)*Q is zero there.  The baby steps j*Q
    (j odd, prime to D) and giant steps c*Q are normalised to z = 1 by
    one batch inversion; if that fails, the gcd of n and the product of
    their z is returned instead."""
    c0, masks = plan
    d, h = _ECM_D, _ECM_D // 2
    q2 = _ladder(*q, 1, a24, n)[1]                  # 2*Q
    babies = [q, _add(q2, q, q, n)]                 # (2i + 1)*Q at i
    while len(babies) <= h // 2:
        babies.append(_add(babies[-1], q2, babies[-2], n))
    step = _ladder(*q, d, a24, n)[0]
    giants = list(_ladder(*step, c0 // d, a24, n))  # c*Q, (c + D)*Q, ...
    while len(giants) < len(masks):
        giants.append(_add(giants[-1], step, giants[-2], n))
    js = [j for j in range(1, h + 1, 2) if math.gcd(j, d) == 1]
    points = [babies[j // 2] for j in js] + giants[:len(masks)]
    prefix, acc = [], 1
    for _, z in points:
        acc = acc * z % n
        prefix.append(acc)
    if math.gcd(acc, n) != 1:
        return math.gcd(acc, n)
    inv, xs = pow(acc, -1, n), [0] * len(points)
    for i in range(len(points) - 1, 0, -1):
        xs[i] = points[i][0] * inv * prefix[i - 1] % n
        inv = inv * points[i][1] % n
    xs[0] = points[0][0] * inv % n
    baby_x = [0] * h
    for j, x in zip(js, xs):
        baby_x[j - 1] = x
    acc = 1
    for xc, mask in zip(xs[len(js):], masks):
        for xj in itertools.compress(baby_x, mask):
            acc = acc * (xc - xj) % n
    return math.gcd(acc, n)
