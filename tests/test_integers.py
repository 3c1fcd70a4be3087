"""Plain-int primality, roots, perfect powers and factoring against sympy.

``conicval.integers`` replaces ``sympy.isprime``, ``sympy.perfect_power``
and ``sympy.factorint`` below 3.3*10^24 and 10^23; each test compares it
with the sympy routine on seeded inputs and on the inputs where a
probabilistic or heuristic method is weakest: Carmichael numbers, strong
pseudoprimes to many bases, prime powers and semiprimes near the rho bound.
"""

import random

import pytest
import sympy

from conicval import integers
from conicval.integers import (factor_cofactor, factorint, integer_root,
                               is_prime, perfect_power, trial_division)

CARMICHAEL = [561, 41041, 825265, 321197185]
STRONG_PSEUDOPRIMES = [
    3215031751,                 # strong pseudoprime to the bases 2, ..., 7
    3825123056546413051,        # to the bases 2, ..., 31
    318665857834031151167461,   # to the bases 2, ..., 37
]
PSI_13 = 3317044064679887385961981  # strong pseudoprime to the bases 2, ..., 41
# the a of the six q_split_big corpus commands
Q_SPLIT_BIG = [300000000000097100000000001271, 41875260544475172209,
               144795848519342245624403, 629618228913030740197447151,
               373635455550066441134494770891689, 23281850539494385467920219]


def _sympy_factors(n):
    return {int(p): e for p, e in sympy.factorint(n).items()}


class TestIsPrime:
    def test_small_range(self):
        assert [n for n in range(-5, 20000) if is_prime(n)] == \
            [n for n in range(-5, 20000) if sympy.isprime(n)]

    @pytest.mark.parametrize("digits", [6, 12, 18, 24, 30])
    def test_seeded_ranges(self, digits):
        rng = random.Random(digits)
        for _ in range(300):
            n = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
            for m in (n, int(sympy.nextprime(n))):
                assert is_prime(m) == sympy.isprime(m), m

    @pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
    def test_pseudoprimes(self, n):
        assert sympy.isprime(n) is False
        assert is_prime(n) is False

    def test_strong_pseudoprime_to_the_first_twelve_bases(self):
        # only the last base, 41, shows 318665857834031151167461 composite
        n = STRONG_PSEUDOPRIMES[-1]
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1

        def strong_liar(a):
            x = pow(a, d, n)
            return x in (1, n - 1) or any(
                pow(x, 2 ** j, n) == n - 1 for j in range(1, s))
        assert [a for a in integers._MR_BASES if not strong_liar(a)] == [41]

    def test_bound_is_handed_to_sympy(self, monkeypatch):
        # PSI_13 passes all 13 strong tests, so only sympy can answer it
        calls = []
        real = sympy.isprime
        monkeypatch.setattr(sympy, "isprime",
                            lambda n: calls.append(n) or real(n))
        assert is_prime(PSI_13) is False
        assert calls == [PSI_13]
        assert is_prime(PSI_13 - 2) == real(PSI_13 - 2)
        assert calls == [PSI_13]


class TestRoots:
    def test_integer_root_is_the_floor(self):
        rng = random.Random(3)
        for _ in range(400):
            n, k = rng.randrange(1 << rng.randrange(1, 300)), rng.randint(1, 40)
            assert integer_root(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)

    def test_perfect_powers(self):
        rng = random.Random(4)
        cases = list(range(2, 5000))
        for _ in range(300):
            b, e = rng.randrange(2, 10 ** rng.randint(1, 12)), rng.randint(2, 12)
            cases += [b ** e, b ** e + 1, b ** e - 1]
        cases += [2 ** 60 * 3 ** 30, 4099 ** 6, (4099 * 4111) ** 4,
                  10007 ** 5 * 4, 3 ** 7 * 10007 ** 7]
        for n in cases:
            assert (perfect_power(n) or False) == sympy.perfect_power(n), n


class TestFactoring:
    def test_trial_division_cofactor(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randrange(1, 10 ** rng.randint(1, 20))
            small, m = trial_division(n)
            assert all(p < integers.TRIAL_BOUND for p in small)
            prod = m
            for p, e in small.items():
                prod *= p ** e
            assert prod == n
            if 1 < m < integers.ROUGH_PRIME_BOUND:
                assert sympy.isprime(m)

    def test_seeded_products_of_known_primes(self):
        rng = random.Random(6)
        for _ in range(200):
            expected = {}
            for _ in range(rng.randint(0, 5)):
                p = int(sympy.nextprime(rng.randrange(2, 10 ** rng.randint(1, 8))))
                expected[p] = expected.get(p, 0) + rng.randint(1, 3)
            n = 1
            for p, e in expected.items():
                n *= p ** e
            assert factorint(n) == expected == _sympy_factors(n)

    def test_prime_powers_above_the_trial_bound(self):
        for p in (4099, 65537, 1000003, 2147483647, 10000000019):
            for e in range(1, 7):
                if p ** e < integers._RHO_LIMIT:
                    assert factorint(p ** e) == {p: e} == _sympy_factors(p ** e)
        n = 4099 ** 2 * 65537 ** 3
        assert factor_cofactor(n) == {4099: 2, 65537: 3} == _sympy_factors(n)

    def test_semiprimes_below_the_rho_bound(self):
        # 20-23 digits, a 9- or 10-digit prime times a larger one
        rng = random.Random(7)
        for digits, small in ((20, 9), (21, 10), (22, 10), (23, 10)):
            p = int(sympy.nextprime(rng.randrange(10 ** (small - 1), 10 ** small)))
            lo, hi = -(-10 ** (digits - 1) // p), 10 ** digits // p
            q = int(sympy.prevprime(rng.randrange(lo + 1000, hi)))
            n = p * q
            assert len(str(n)) == digits
            assert factorint(n) == {p: 1, q: 1} == _sympy_factors(n)

    @pytest.mark.parametrize("n", Q_SPLIT_BIG)
    def test_q_split_big(self, n):
        assert factorint(n) == _sympy_factors(n)

    def test_from_24_digits_sympy_factors(self, monkeypatch):
        calls = []
        real = sympy.factorint
        monkeypatch.setattr(sympy, "factorint",
                            lambda n: calls.append(n) or real(n))
        big, below = Q_SPLIT_BIG[0], Q_SPLIT_BIG[1]
        factorint(big)
        factorint(below)
        assert calls == [big]

    def test_one_and_small(self):
        assert factorint(1) == {}
        assert all(factorint(n) == _sympy_factors(n) for n in range(2, 3000))
