"""Primality, perfect powers and factoring of plain ints, for Q.

Over Q the splitting question is answered by Hilbert symbols at the primes
dividing a and b, so these routines sit on the decision path.  They run on
Python ints and import sympy only past two bounds:

* ``is_prime`` runs strong probable-prime tests to the 13 prime bases
  2, ..., 41, which prove primality below 3317044064679887385961981, about
  3.3*10^24 (Sorenson and Webster, Math. Comp. 86, 2017); from that bound
  up it calls ``sympy.isprime``.
* ``factorint`` divides out the primes below 2^12 in one pass
  (``trial_division``) and factors what is left (``factor_cofactor``) by a
  primality test, integer roots and Pollard's rho with Brent's cycle
  finding (Brent, BIT 20, 1980) while it is below 10^23; from 24 digits up,
  where sympy would turn to ECM, it calls ``sympy.factorint``.
"""

from __future__ import annotations

import itertools
import math

TRIAL_BOUND = 1 << 12
# a cofactor of trial division below this bound is 1 or a prime: a
# composite without a prime factor below 2^12 is at least 4099^2
ROUGH_PRIME_BOUND = TRIAL_BOUND * TRIAL_BOUND
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_LIMIT = 10 ** 23
_RHO_BATCH = 128


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
    below 3.3*10^24, by ``sympy.isprime`` from there up."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _MR_LIMIT:
        import sympy
        return bool(sympy.isprime(n))
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

    Below 10^23 each part is tested for primality, then for a perfect
    power, then split by ``_brent_rho``; its factors are again without a
    prime factor below 2^12, so those below 2^24 are prime.  From 10^23 up
    it is ``sympy.factorint(m)``.
    """
    if m >= _RHO_LIMIT:
        import sympy
        return {int(p): e for p, e in sympy.factorint(m).items()}
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
        else:
            d = _brent_rho(m)
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


def _brent_rho(n: int) -> int:
    """A proper factor of n, an odd composite that is no perfect power.

    Pollard's rho on y -> y^2 + c for c = 1, 2, ... from y = 2, with Brent's
    cycle finding: x is held at y_(r-1) for r = 1, 2, 4, ... while y walks
    on, and the differences x - y are multiplied mod n, _RHO_BATCH at a
    time, before one gcd with n.  A batch whose gcd is n is retraced step
    by step; if that still gives n, the next c is tried.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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
