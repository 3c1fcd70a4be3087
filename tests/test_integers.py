"""Plain-int primality, roots, perfect powers and factoring against sympy.

``conicval.integers`` replaces ``sympy.isprime`` below 3.3*10^24 (and on
composites above), ``sympy.perfect_power``, and ``sympy.factorint`` up to
the last of its first 50 ECM curves; each test compares it with the sympy
routine on seeded inputs and on the inputs where a probabilistic or
heuristic method is weakest: Carmichael numbers, strong pseudoprimes to
many bases, prime powers, semiprimes near the rho bound and cofactors of
24 digits and up that only p-1, capped rho or ECM split.
"""

import itertools
import math
import random
from collections import Counter

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


def _sympy_factors(n, factorint=sympy.factorint):
    return {int(p): e for p, e in factorint(n).items()}


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

    def test_composite_above_the_bound_is_answered_without_sympy(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(sympy, "isprime", calls.append)
        assert Q_SPLIT_BIG[4] > integers._MR_LIMIT
        assert is_prime(Q_SPLIT_BIG[4]) is False
        assert calls == []


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
    def test_q_split_big(self, n, monkeypatch):
        expected = _sympy_factors(n)
        calls = []
        monkeypatch.setattr(sympy, "factorint", calls.append)
        assert factorint(n) == expected
        assert calls == []

    def test_sympy_factors_only_past_the_curves(self, monkeypatch):
        # id 367's a: two 12-digit primes, which p-1 and capped rho miss
        n = Q_SPLIT_BIG[2]
        calls = []
        real = sympy.factorint
        monkeypatch.setattr(sympy, "factorint",
                            lambda m: calls.append(m) or real(m))
        monkeypatch.setattr(integers, "_ECM_CURVES", 0)
        assert factorint(n) == _sympy_factors(n)
        assert calls == [n]

    def test_one_and_small(self):
        assert factorint(1) == {}
        assert all(factorint(n) == _sympy_factors(n) for n in range(2, 3000))


def _primes(rng, *digits):
    return [int(sympy.nextprime(rng.randrange(10 ** (d - 1), 10 ** d)))
            for d in digits]


class TestBigCofactors:
    """Cofactors from 10^23 up: Pollard p-1, rho capped at ``_RHO_STEPS``
    steps, ECM on sympy's first curve schedule, then ``sympy.factorint``."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The splitting steps called, in order; ``sympy.factorint`` fails."""
        calls = []
        for name in ("_brent_rho", "_ecm"):
            def spy(*args, real=getattr(integers, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(integers, name, spy)
        monkeypatch.setattr(sympy, "factorint", None)
        return calls

    def test_exponent_is_sympys(self):
        b1 = integers._ECM_B1
        assert integers._ecm_exponent() == math.prod(
            p ** int(math.log(b1, p)) for p in sympy.primerange(2, b1 + 1))

    @staticmethod
    def _curve(n, index):
        """(u^3, v^3, a24) of curve index (from 0) of ``_ecm`` on n."""
        rng = random.Random(integers._ECM_B1)
        for _ in range(index + 1):
            sigma = rng.randint(6, n - 1)
        u, v = (sigma * sigma - 5) % n, 4 * sigma % n
        a24 = pow(v - u, 3, n) * (3 * u + v) * pow(16 * u ** 3 * v, -1, n)
        return u ** 3 % n, v ** 3 % n, a24 % n

    def test_stage_one_point_is_sympys(self):
        from sympy.ntheory.ecm import Point
        n, k = Q_SPLIT_BIG[4], integers._ecm_exponent()
        x0, z0, a24 = self._curve(n, 0)
        ref = Point(x0, z0, a24, n).mont_ladder(k)
        (x, z), _ = integers._ladder(x0 * pow(z0, -1, n) % n, 1, k, a24, n)
        assert (x * ref.z_cord - z * ref.x_cord) % n == 0
        assert math.gcd(z, n) == math.gcd(ref.z_cord, n) == 1

    def test_stage_two_splits_id_369_on_the_second_curve(self):
        # sympy's _ecm_one_factor splits it there too, in its stage 2
        n, k = Q_SPLIT_BIG[4], integers._ecm_exponent()
        x0, z0, a24 = self._curve(n, 1)
        q, _ = integers._ladder(x0 * pow(z0, -1, n) % n, 1, k, a24, n)
        assert math.gcd(q[1], n) == 1
        g = integers._ecm_stage2(q, a24, n, integers._stage2_plan())
        assert g in _sympy_factors(n)

    def test_stage_two_plan_covers_the_primes(self):
        c0, masks = integers._stage2_plan()
        d, b1, b2 = integers._ECM_D, integers._ECM_B1, integers._ECM_B2
        primes = set(sympy.sieve.primerange(b1 + 1, b2 + d + 1))
        covered = set()
        for i, mask in enumerate(masks):
            c = c0 + i * d
            for j in itertools.compress(range(1, d // 2 + 1), mask):
                assert math.gcd(j, d) == 1
                pair = {c - j, c + j} & primes
                assert pair, (c, j)
                covered |= pair
        assert covered == primes

    def test_semiprimes_of_12_to_14_digit_primes(self, steps):
        rng = random.Random(8)
        for digits in (12, 13, 14):
            p, q = _primes(rng, digits, digits)
            assert p * q >= integers._RHO_LIMIT
            assert factorint(p * q) == {p: 1, q: 1} == _sympy_factors(p * q)
        assert "_ecm" in steps

    def test_three_primes(self, steps):
        rng = random.Random(9)
        for digits in ((9, 10, 11), (12, 12, 12)):
            primes = _primes(rng, *digits)
            n = math.prod(primes)
            assert factorint(n) == Counter(primes) == _sympy_factors(n)
        assert "_ecm" in steps

    def test_prime_squares(self, steps):
        rng = random.Random(10)
        p, q, r = _primes(rng, 13, 9, 9)
        for primes in ([p, p], [q, q, r]):
            n = math.prod(primes)
            assert n >= integers._RHO_LIMIT
            assert factorint(n) == Counter(primes) == _sympy_factors(n)

    def test_p_minus_one_splits_id_368(self, steps):
        n = Q_SPLIT_BIG[3]
        assert factorint(n) == _sympy_factors(n)
        assert steps == []

    def test_capped_rho_splits_id_370(self, steps):
        n = Q_SPLIT_BIG[5]
        factors = factorint(n)
        assert 456607 in factors
        assert factors == _sympy_factors(n)
        assert steps == ["_brent_rho"]

    def test_rho_stops_at_its_cap(self):
        assert integers._brent_rho(Q_SPLIT_BIG[4], integers._RHO_STEPS) \
            is None
        assert integers._brent_rho(Q_SPLIT_BIG[5], 0) is None
