import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from sympy.polys.galoistools import (gf_factor, gf_factor_sqf,
                                     gf_irred_p_ben_or, gf_sqf_p)

from conicval import fields
from conicval.cli import main, parse_base_field
from conicval.errors import (ContextMismatch, DegreeTooLarge, DivisionByZero,
                             UnsupportedField, ZeroInput, ZeroPolynomial)
from conicval.fields import (FF, FlatQuotient, FunctionField, GF, PolyRing,
                             QQ, RatFunc, factor, is_irreducible, is_square,
                             poly_gcd, square_class_reduce,
                             squarefree_decomposition, sqrt_exact)
from conicval.oracle import sample_field_element, sample_poly
from conicval.valuation import InfinitePlaceValuation, PlaceValuation
from conicval.value import Value


class TestOperatorContexts:
    """The element operators check their contexts and promote ints."""

    def test_prime_field_mul(self):
        f5 = FF(5)
        assert f5.from_int(2) * f5.from_int(3) == f5.from_int(1)

    def test_extension_field_mul(self):
        f25 = FF(5, (-2, 0, 1))   # F_5[u]/(u^2 - 2)
        u = f25.gen()
        assert u * u == f25.from_int(2)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            FF(5).from_int(1) + FF(7).from_int(1)

    def test_int_promotion(self):
        f5 = FF(5)
        assert 2 * f5.from_int(3) == f5.from_int(1)

    def test_ratfunc_takes_what_its_field_coerces(self):
        """A RatFunc operand of another field, a Poly, a coefficient or an
        int is read through ``FunctionField.coerce``, which also takes a
        Poly over the coefficient ring: E[t] inside E(t) inside E(t)(x)."""
        qt = FunctionField(QQ, "t")
        qtx = FunctionField(qt, "x")
        t, x = qt.gen(), qtx.gen()
        p = qt.ring.poly([1, 2])                       # 2*t + 1 in Q[t]
        expected = qtx.from_poly(qtx.ring.poly([0, 2 * t + 1]))
        assert x * p == expected and p * x == expected
        assert x + Fraction(1, 3) == qtx.from_poly(
            qtx.ring.poly([Fraction(1, 3), 1]))
        assert t - x == qtx.from_poly(qtx.ring.poly([t, -1]))
        f9 = GF(9)
        f9tx = FunctionField(FunctionField(f9, "t"), "x")
        u, x = f9.gen(), f9tx.gen()
        assert x * u + 1 == f9tx.from_poly(f9tx.ring.poly([1, u]))
        assert u - x == f9tx.from_poly(f9tx.ring.poly([u, -1]))
        with pytest.raises(TypeError):
            x * PolyRing(GF(5), "z").gen()


def _all_contexts():
    return [QQ, FF(5), FF(3, (1, 0, 1)), FunctionField(QQ, "t"),
            FunctionField(FF(3), "t")]


def _sample(rng, ctx):
    from conicval.oracle import sample_field_element
    return sample_field_element(rng, ctx)


class TestFieldAxioms:
    @pytest.mark.parametrize("ctx_index", range(5))
    def test_axioms_on_random_triples(self, ctx_index):
        ctx = _all_contexts()[ctx_index]
        rng = random.Random(1000 + ctx_index)
        one = ctx.one()
        for _ in range(1000):
            a, b, c = (_sample(rng, ctx) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * (one / a) == one


class TestIsSquare:
    def test_two_nonsquare_mod_five(self):
        # Euler criterion: 2^((5-1)/2) mod 5
        assert pow(2, 2, 5) != 1
        ok, root = is_square(FF(5).from_int(2))
        assert not ok and root is None

    def test_rational_square(self):
        ok, root = is_square(Fraction(4, 9))
        assert ok and root == Fraction(2, 3)
        assert not is_square(Fraction(-4, 9))[0]
        assert not is_square(Fraction(2))[0]

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            is_square(Fraction(0))

    def test_f9_generator_against_exhaustive_squaring(self):
        f9 = FF(3, (1, 0, 1))
        squares = {y * y for y in f9.nonzero_elements()}
        ok, root = is_square(f9.gen())
        assert ok == (f9.gen() in squares)
        if ok:
            assert root * root == f9.gen()

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121])
    def test_agrees_with_exhaustive_squaring(self, q):
        k = GF(q)
        squares = {y * y for y in k.nonzero_elements()}
        for x in k.nonzero_elements():
            ok, root = is_square(x, k)
            assert ok == (x in squares)
            if ok:
                assert root * root == x

    def test_function_field_square(self, qt):
        t = qt.gen()
        sq = (t + 1) ** 2 / (t ** 2)
        ok, root = is_square(sq)
        assert ok and root * root == sq
        assert not is_square(t)[0]
        assert not is_square(2 * (t + 1) ** 2)[0]

    def test_char_p_function_field_square(self, f3t):
        t = f3t.gen()
        # t^3 + 1 = (t + 1)^3 in characteristic 3: an odd power, not a square
        assert not is_square(t ** 3 + 1)[0]
        ok, root = is_square((t ** 3 + 1) * (t + 1))
        assert ok and root * root == (t ** 3 + 1) * (t + 1)


class TestPthRootsOverFqT:
    """In F_3(t)(x) a polynomial with zero derivative is g(x^3); it is a
    cube when the coefficients of g are cubes of F_3(t), and inseparable
    otherwise."""

    @pytest.fixture
    def tower(self, f3t):
        ex = FunctionField(f3t, "x")
        return ex.gen(), ex.coerce(f3t.gen())

    def test_x6_is_the_square_of_x3(self, tower):
        x, _ = tower
        assert is_square(x ** 6) == (True, x ** 3)

    def test_cube_of_a_quadratic(self, tower):
        x, t = tower
        _, parts = squarefree_decomposition((x ** 6 + t ** 9).num)
        assert parts == [((x ** 2 + t ** 3).num, 3)]

    def test_inseparable_polynomial_is_rejected(self, tower):
        x, t = tower
        with pytest.raises(UnsupportedField, match="inseparable"):
            is_square(x ** 3 - t)


class TestTonelliShanks:
    """FF.sqrt against the whole-field table it replaced, which kept the
    first root in index order (``setdefault``); the fields reach 2-adic
    depth s = 8 in q - 1 = 2^s * t (q = 257) and include q = 1 mod 8."""

    @pytest.mark.parametrize("q", [3, 5, 9, 17, 25, 27, 41, 49, 81, 97, 113,
                                   121, 125, 257, 343, 625, 729])
    def test_least_index_root_equals_table(self, q):
        k = GF(q)
        table = {}
        for y in k.elements():
            table.setdefault(y * y, y)
        for x in k.elements():
            root = table.get(x)
            assert k.sqrt(x) == root, x
            if x:
                assert is_square(x, k) == (root is not None, root)

    def test_nonsquare_is_first_in_index_order_and_cached(self):
        from conicval.fields import _canonical_nonsquare
        k = GF(97)
        c = _canonical_nonsquare(k)
        squares = {y * y for y in k.elements()}
        first = next(y for y in k.nonzero_elements() if y not in squares)
        assert c == first == k.from_int(5)
        assert _canonical_nonsquare(k) is c

    @pytest.mark.parametrize("q", [9, 25, 49, 81, 121, 3 ** 6, 27, 125])
    def test_nonsquare_agrees_with_the_full_scan(self, q):
        """Over F_{p^k} with k even the scan skips the constants of F_p."""
        from conicval.fields import _canonical_nonsquare
        k = GF(q)
        first = next(y for y in k.nonzero_elements()
                     if y ** ((q - 1) // 2) != k.one())
        assert _canonical_nonsquare(k) == first


def _tuple_reference(k):
    """*, inverse and ** of k on coefficient tuples (lowest degree first)
    modulo the modulus: schoolbook product, long division, extended Euclid
    and square-and-multiply."""
    p, mod, n = k.p, k.modulus, k.degree

    def pad(c):
        return tuple(c) + (0,) * (n - len(c))

    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return trim(out)

    def poly_divmod(a, b):
        a, b = trim(a), trim(b)
        inv = pow(b[-1], -1, p)
        quo = [0] * max(len(a) - len(b) + 1, 0)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            quo[shift] = c
            a = trim([x - c * b[i - shift] if i >= shift else x
                      for i, x in enumerate(a)])
        return trim(quo), a

    def mul(a, b):
        return pad(poly_divmod(poly_mul(a, b), mod)[1])

    def sub(a, b):
        n = max(len(a), len(b))
        return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def inverse(a):
        r0, r1, s0, s1 = trim(mod), trim(a), [], [1]
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, sub(s0, poly_mul(q, s1))
        assert len(r0) == 1
        return pad(trim([x * pow(r0[0], -1, p) for x in s0]))

    def power(a, e):
        base, out, e = (a if e >= 0 else inverse(a)), pad([1]), abs(e)
        while e:
            if e & 1:
                out = mul(out, base)
            base, e = mul(base, base), e >> 1
        return out

    return mul, inverse, power


class TestPrimeFieldFastPath:
    """Prime-field elements multiply, invert and power on ints; the results
    equal the tuple routines, which F_{p^k} keeps."""

    @staticmethod
    def _check(k, pairs, exponents):
        mul, inverse, power = _tuple_reference(k)
        for x, y in pairs:
            assert (x * y).coeffs == mul(x.coeffs, y.coeffs), (x, y)
            if y:
                assert (x / y).coeffs == \
                    mul(x.coeffs, inverse(y.coeffs)), (x, y)
        for x in dict.fromkeys(x for x, _ in pairs):
            if x:
                assert x.inverse().coeffs == inverse(x.coeffs), x
            for e in exponents:
                if x or e >= 0:
                    assert (x ** e).coeffs == power(x.coeffs, e), (x, e)

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 101, 9, 25])
    def test_all_pairs_agree_with_tuple_routines(self, q):
        k = GF(q)
        elements = list(k.elements())
        self._check(k, [(x, y) for x in elements for y in elements],
                    [-q, -3, -1, 0, 1, 2, q - 2, q, 2 * q + 3])

    def test_draws_at_a_mersenne_prime(self):
        p = 2 ** 61 - 1
        k = FF(p)
        rng = random.Random(41)
        draws = [(k.from_int(rng.randrange(p)), k.from_int(rng.randrange(p)))
                 for _ in range(200)]
        self._check(k, draws, [-rng.randrange(p) for _ in range(3)]
                    + [0, 1, p - 2, rng.randrange(p ** 2)])

    def test_element_keeps_the_constant_term(self):
        k = FF(7)
        assert k.element([9, 3, 5]).coeffs == (2,)
        assert k.element([]) == k.zero()

    def test_zero_has_no_inverse(self):
        k = FF(101)
        with pytest.raises(DivisionByZero):
            k.zero().inverse()
        with pytest.raises(DivisionByZero):
            k.zero() ** -2
        with pytest.raises(DivisionByZero):
            k.one() / k.zero()


class TestPolynomials:
    def test_gcd_over_q(self):
        r = PolyRing(QQ, "X")
        f = r.poly([-1, 0, 1])
        g = r.poly([1, -2, 1])
        assert str(poly_gcd(f, g)) == "X - 1"

    def test_gcd_zero_zero(self):
        r = PolyRing(QQ, "X")
        with pytest.raises(ZeroPolynomial):
            poly_gcd(r.zero(), r.zero())

    def test_factor_x2_plus_1_mod_5(self):
        # brute-force root search mod 5 finds the splitting
        roots = [x for x in range(5) if (x * x + 1) % 5 == 0]
        assert roots == [2, 3]
        r5 = PolyRing(FF(5), "X")
        lead, facs = factor(r5.poly([1, 0, 1]))
        assert lead == FF(5).one()
        assert [str(h) for h, _ in facs] == ["X + 2", "X + 3"]
        prod = r5.one()
        for h, m in facs:
            prod = prod * h ** m
        assert prod.scale(lead) == r5.poly([1, 0, 1])

    def test_factor_x2_plus_1_mod_3_irreducible(self):
        assert [x for x in range(3) if (x * x + 1) % 3 == 0] == []
        r3 = PolyRing(FF(3), "X")
        assert is_irreducible(r3.poly([1, 0, 1]))
        _, facs = factor(r3.poly([1, 0, 1]))
        assert len(facs) == 1 and facs[0][1] == 1

    def test_factor_over_extension_field(self):
        f9 = GF(9)
        r = PolyRing(f9, "X")
        u = f9.gen()
        # (X - u)(X + u) = X^2 - u^2
        f = r.poly([-(u * u), f9.zero(), f9.one()])
        _, facs = factor(f)
        assert len(facs) == 2
        prod = r.one()
        for h, m in facs:
            assert h.is_monic() and is_irreducible(h)
            prod = prod * h ** m
        assert prod == f

    def test_factor_over_q(self):
        r = PolyRing(QQ, "X")
        f = r.poly([Fraction(1, 2), Fraction(-1), Fraction(1, 2)])  # (X-1)^2/2
        lead, facs = factor(f)
        assert lead == Fraction(1, 2)
        assert len(facs) == 1 and facs[0][1] == 2
        assert str(facs[0][0]) == "X - 1"

    def test_factor_degree_limit_over_q(self):
        r = PolyRing(QQ, "X")
        with pytest.raises(DegreeTooLarge):
            factor(r.poly([1] + [0] * 8 + [1]))

    def test_factor_zero(self):
        r = PolyRing(QQ, "X")
        with pytest.raises(ZeroPolynomial):
            factor(r.zero())

    def test_squarefree_char_p_pth_power(self):
        r3 = PolyRing(FF(3), "X")
        x = r3.gen()
        f = (x + 1) ** 3 * (x + 2)
        lead, parts = squarefree_decomposition(f)
        rebuilt = r3.one()
        for g, m in parts:
            rebuilt = rebuilt * g ** m
        assert rebuilt.scale(lead) == f
        assert {m for _, m in parts} == {1, 3}


def _nonzero_poly(rng, ring, degree):
    while True:
        p = sample_poly(rng, ring, degree)
        if p:
            return p


def _schoolbook(f, g):
    out = [f.ring.field.zero()] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class TestIntegerKernels:
    """gcd over Q[t] and Q(t)[x] and multiplication over Q run on integer
    rows; each is checked against a route that stays in the field."""

    def test_tower_gcd_agrees_with_euclid(self, qt):
        ring = PolyRing(qt, "x")
        rng = random.Random(41)
        for _ in range(100):
            a, b, c = (_nonzero_poly(rng, ring, 3) for _ in range(3))
            f, g = a * c, b * c
            assert poly_gcd(f, g) == _euclid(f, g).monic()

    def test_rational_gcd_agrees_with_euclid(self):
        ring = PolyRing(QQ, "t")
        rng = random.Random(42)
        for _ in range(200):
            a, b, c = (sample_poly(rng, ring, 4) for _ in range(3))
            f, g = a * c, b * c
            if not f and not g:
                continue
            u, v = f, g
            while v:
                u, v = v, u % v
            assert poly_gcd(f, g) == u.monic()
        f = _nonzero_poly(rng, ring, 4)
        assert poly_gcd(f, ring.zero()) == f.monic()
        assert poly_gcd(ring.zero(), f) == f.monic()

    def test_rational_mul_agrees_with_schoolbook(self):
        ring = PolyRing(QQ, "t")
        rng = random.Random(43)
        cases = [
            (ring.poly([3, 0, 0, Fraction(-5, 7)]),
             ring.poly([Fraction(-1, 2), 0, 4])),
            (ring.poly([0, 0, Fraction(2, 3)]), ring.poly([-1, 0, 0, 0, 1])),
            (ring.poly([Fraction(-9, 4)]), ring.poly([1, Fraction(-1, 6)])),
        ]
        cases += [(sample_poly(rng, ring, 6), sample_poly(rng, ring, 6))
                  for _ in range(300)]
        for f, g in cases:
            product = (f * g).coeffs
            assert product == _schoolbook(f, g)
            assert all(type(c) is Fraction for c in product)

    def test_large_gcd_divides_both(self):
        ring = PolyRing(QQ, "t")
        rng = random.Random(44)

        def big(degree):
            return ring.poly(
                [Fraction(rng.randrange(-2 ** 64, 2 ** 64),
                          rng.randrange(1, 2 ** 62)) for _ in range(degree)]
                + [Fraction(rng.randrange(2 ** 60, 2 ** 64), 3)])

        c = big(5)
        f, g = big(8) * c, big(8) * c
        assert f.degree() >= 12 and g.degree() >= 12
        h = poly_gcd(f, g)
        assert not f % h and not g % h
        assert not h % c and h.is_monic()


def _gcd_then_divide(num, den, gcd):
    """Canonical form by the field route: divide by the gcd with ``//``,
    then make the denominator monic."""
    g = gcd(num, den)
    num, den = num // g, den // g
    inv = den.ring.field.one() / den.leading()
    return num.scale(inv), den.scale(inv)


def _euclid(f, g):
    while g:
        f, g = g, f % g
    return f


class TestCofactorKernels:
    """Over Q and Q(t), RatFunc normalises from the cofactors of the
    integer gcd and Poly multiplication over Q(t) runs on Z[t] rows; each
    is checked against a route that stays in the field."""

    def test_rational_canonical_form_agrees_with_division(self):
        field = FunctionField(QQ, "t")
        rng = random.Random(45)
        for _ in range(200):
            a, b, c = (_nonzero_poly(rng, field.ring, 4) for _ in range(3))
            h = RatFunc(field, a * c, b * c)
            assert (h.num, h.den) == _gcd_then_divide(a * c, b * c, _euclid)

    def test_tower_canonical_form_agrees_with_division(self, qt):
        field = FunctionField(qt, "x")
        ring = field.ring
        t = qt.gen()
        rng = random.Random(46)
        cases = [(ring.poly([0, t]), ring.poly([t])),
                 (ring.poly([t * t, 0, 1 / (t + 1)]), ring.poly([0, t - 1])),
                 (ring.poly([Fraction(3, 4)]), ring.poly([1 / t, t / 2]))]
        for _ in range(60):
            a, b, c = (_nonzero_poly(rng, ring, 2) for _ in range(3))
            cases.append((a * c, b * c))
        for num, den in cases:
            h = RatFunc(field, num, den)
            assert (h.num, h.den) == _gcd_then_divide(num, den, _euclid)

    def test_tower_mul_agrees_with_schoolbook(self, qt):
        ring = PolyRing(qt, "x")
        t = qt.gen()
        rng = random.Random(47)
        cases = [(ring.poly([t, 0, 0, 1 / (t + 1)]),
                  ring.poly([Fraction(-1, 2), 0, t * t / 3])),
                 (ring.poly([0, 0, (t - 2) / (t * t + 1)]),
                  ring.poly([-1, 0, 0, 0, 1])),
                 (ring.poly([1 / t]), ring.poly([t, 0, 0, t]))]
        cases += [(sample_poly(rng, ring, 3), sample_poly(rng, ring, 3))
                  for _ in range(100)]
        for f, g in cases:
            assert (f * g).coeffs == _schoolbook(f, g)


class TestRationalFunctions:
    def test_canonical_form_is_normal_form(self, qt):
        a = qt.ratfunc(qt.ring.poly([-1, 0, 1]), qt.ring.poly([-1, 1]))
        b = qt.ratfunc(qt.ring.poly([1, 1]), qt.ring.one())
        assert a.num == b.num and a.den == b.den
        assert hash(a) == hash(b)

    def test_den_monic(self, qt):
        a = qt.ratfunc(qt.ring.poly([1]), qt.ring.poly([2, 4]))
        assert a.den.is_monic()
        assert a == qt.ratfunc(qt.ring.poly([Fraction(1, 4)]),
                               qt.ring.poly([Fraction(1, 2), 1]))

    def test_zero_denominator(self, qt):
        with pytest.raises(DivisionByZero):
            qt.ratfunc(qt.ring.one(), qt.ring.zero())

    def test_arithmetic_roundtrip(self, qt):
        rng = random.Random(7)
        from conicval.oracle import sample_ratfunc
        for _ in range(200):
            a = sample_ratfunc(rng, qt)
            b = sample_ratfunc(rng, qt)
            if b:
                assert (a / b) * b == a
            assert a + b - b == a

    @pytest.mark.parametrize("coefficients", ["Q(t)", "F5(t)", "F9(t)", "Q"])
    def test_constant_inverse_and_powers_are_canonical(self, coefficients):
        """A constant's inverse and powers, taken in the coefficient field,
        equal the normalised quotients."""
        from conicval.oracle import sample_field_element
        k = {"Q(t)": FunctionField(QQ, "t"), "F5(t)": FunctionField(GF(5), "t"),
             "F9(t)": FunctionField(GF(9), "t"), "Q": QQ}[coefficients]
        ex = FunctionField(k, "x")
        rng = random.Random(43)
        for _ in range(20):
            c = ex.ring.poly([sample_field_element(rng, k, nonzero=True)])
            one = ex.ring.one()
            assert ex.from_poly(c).inverse() == RatFunc(ex, one, c)
            for e in (-3, -1, 0, 2):
                expected = (RatFunc(ex, c ** e, one) if e >= 0
                            else RatFunc(ex, one, c ** -e))
                assert ex.from_poly(c) ** e == expected, (c, e)
        with pytest.raises(DivisionByZero):
            ex.zero() ** -1


class TestTowerRows:
    """Over Q(t)(x) a RatFunc is stored as reduced rows of Z[t][x] and its
    arithmetic runs on them; each result must be the canonical form that
    the same quotient gets when built from Polys over Q(t)."""

    def test_row_arithmetic_agrees_with_poly_construction(self, qt):
        from conicval.oracle import sample_field_element
        ex = FunctionField(qt, "x")
        rng = random.Random(48)

        def built(num, den):
            return RatFunc(ex, num, den)

        for _ in range(60):
            a, b = (sample_field_element(rng, ex, nonzero=True) for _ in range(2))
            k = rng.randint(1, 3)
            results = [
                (a + b, built(a.num * b.den + b.num * a.den, a.den * b.den)),
                (a - b, built(a.num * b.den - b.num * a.den, a.den * b.den)),
                (a * b, built(a.num * b.num, a.den * b.den)),
                (a / b, built(a.num * b.den, a.den * b.num)),
                (-a, built(-a.num, a.den)),
                (a.inverse(), built(a.den, a.num)),
                (a ** k, built(a.num ** k, a.den ** k)),
                (a ** -k, built(a.den ** k, a.num ** k)),
            ]
            for got, want in results:
                assert (got.num, got.den) == (want.num, want.den)
                assert got == want and hash(got) == hash(want)
                assert got.den.is_monic()
            assert not a - a and a - a == ex.zero()
            # equal denominators whose sum cancels: (N + D - N) / D = 1
            assert a + (1 - a) == ex.one() and (a + (1 - a)).rows == ([[1]], [[1]])
            with pytest.raises(DivisionByZero):
                a / 0
            with pytest.raises(DivisionByZero):
                a / ex.zero()

    def test_rows_are_reduced_with_positive_lead(self, qt):
        from sympy.polys.euclidtools import dmp_gcd
        from sympy.polys.domains import ZZ
        from conicval.oracle import sample_field_element
        ex = FunctionField(qt, "x")
        rng = random.Random(49)
        for _ in range(60):
            a = sample_field_element(rng, ex, nonzero=True)
            n, d = (a * a + a).rows
            assert dmp_gcd(n, d, 1, ZZ) == [[1]] and d[0][0] > 0


def _copy(h):
    """A new element storing the same pair as h, unreduced at level 1."""
    return RatFunc(h.field, _rows=h.fraction)


def _eager(h):
    """h reduced at once, as every level-0 element is."""
    h.rows
    return h


# Seeded level-1 expressions, each a function of four operands and of the
# step that follows every operation: a sum, a difference, a product, a
# quotient and a negation, the two parts of ConicFieldElement.__mul__ and
# of its inverse (depth 3, m standing for a*x^2 + b), and three zeros.
_EXPRESSIONS = [
    lambda a, b, c, d, m, s: s(a + b),
    lambda a, b, c, d, m, s: s(a - b),
    lambda a, b, c, d, m, s: s(a * b),
    lambda a, b, c, d, m, s: s(a / b),
    lambda a, b, c, d, m, s: s(-a),
    lambda a, b, c, d, m, s: s(s(a * c) + s(s(b * d) * m)),
    lambda a, b, c, d, m, s: s(s(a * d) + s(b * c)),
    lambda a, b, c, d, m, s: s(a / s(s(a * a) - s(s(b * b) * m))),
    lambda a, b, c, d, m, s: s(s(-b) / s(s(a * a) - s(s(b * b) * m))),
    lambda a, b, c, d, m, s: s(a - a),
    lambda a, b, c, d, m, s: s(s(a * b) - s(b * a)),
    lambda a, b, c, d, m, s: s(s(s(a + b) - b) - a),
]


class TestLazyTowerRows:
    """At level 1 (Q(t)(x), F_q(t)(x)) + - * / keep the pair they form
    (``RatFunc.fraction``) unreduced, and ``rows`` reduces it on first
    use.  Every result must give the rows, str, hash, == and bool of the
    eager form, reduced after each operation, and its rows must be
    ``reduced`` of the unreduced pair."""

    @pytest.mark.parametrize("coefficients", ["Q(t)", "F3(t)", "F9(t)"])
    def test_lazy_results_match_the_eager_form(self, coefficients):
        from conicval.oracle import sample_ratfunc
        k = FunctionField({"Q(t)": QQ, "F3(t)": GF(3),
                           "F9(t)": GF(9)}[coefficients], "t")
        ex = FunctionField(k, "x")
        K, t = ex.kernel, ex.coerce(k.gen())
        assert ex.level == 1
        m = ex.from_poly(ex.ring.poly([k.gen(), 0, 1]))    # x^2 + t
        rng = random.Random(53)
        draws = zeros = unreduced = 0
        while draws < 4:
            ops = [sample_ratfunc(rng, ex, 2, 1) * t ** rng.randint(-1, 1)
                   for _ in range(4)]
            if not ops[1]:
                continue
            draws += 1
            for expression in _EXPRESSIONS:
                lazy = expression(*map(_copy, ops), m, lambda h: h)
                eager = expression(*(_eager(_copy(h)) for h in ops), m, _eager)
                pair = lazy.fraction
                assert bool(lazy) == bool(eager)
                assert lazy.rows == eager.rows == K.reduced(*pair)
                assert str(lazy) == str(eager)
                assert hash(lazy) == hash(eager) and lazy == eager
                zeros += not eager
                unreduced += pair != eager.rows
        assert zeros >= 3 * draws and unreduced >= 2 * draws


@pytest.mark.parametrize("coefficients", ["Q", "F9", "Q(t)", "F3(t)", "F9(t)"])
def test_is_constant_sees_through_common_factors(coefficients):
    """is_constant() is degree() == 0 with no gcd: on (x+1)*c/(x+1) and on
    a*g/g, stored unreduced at level 1, it answers for the canonical form."""
    from conicval.oracle import sample_field_element, sample_ratfunc
    k = {"Q": QQ, "F9": GF(9), "Q(t)": FunctionField(QQ, "t"),
         "F3(t)": FunctionField(GF(3), "t"),
         "F9(t)": FunctionField(GF(9), "t")}[coefficients]
    ex = FunctionField(k, "x")
    pi = ex.coerce(k.gen() if k != QQ else 5)
    rng = random.Random(54)
    xp1, constants = ex.gen() + 1, 0
    for i in range(40):
        if i % 2:
            c = pi ** rng.randint(-2, 2) * sample_field_element(rng, k)
            h = xp1 * c / xp1
        else:
            g = sample_ratfunc(rng, ex, 2, 1)
            h = sample_ratfunc(rng, ex, 1, 1) * g / g if g else g
        canonical = RatFunc(ex, _rows=ex.kernel.reduced(*h.fraction),
                            _reduced=True)
        assert h.is_constant() == (canonical.degree() == 0), h
        constants += canonical.degree() == 0
    assert constants >= 20


@pytest.mark.parametrize("coefficients", ["Q(t)", "F3(t)"])
def test_is_constant_on_a_level_one_zero(coefficients):
    """x/(x+1) - x/(x+1) is the zero of Q(t)(x) or F_3(t)(x), stored as the
    kernel's zero row ([[]] in Z[t][x]): constant, of degree 0."""
    k = GF(3) if coefficients == "F3(t)" else QQ
    ex = FunctionField(FunctionField(k, "t"), "x")
    x = ex.gen()
    h = x / (x + 1) - x / (x + 1)
    assert not h and h.fraction[0] == ex.kernel.zero
    assert h.is_constant() and h.degree() == 0
    assert RatFunc(ex, _rows=h.fraction).is_constant()


def _fraction_canonical(num, den):
    """Canonical (num, den) over Q by Fraction cofactors: clear both to
    integer rows, take the cofactors of their gcd over Z, and put each
    coefficient as one Fraction over the lead of den's cofactor."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_inner_gcd
    ring = num.ring
    if not num:
        return ring.zero(), ring.one()
    dn = math.lcm(*(c.denominator for c in num.coeffs))
    dd = math.lcm(*(c.denominator for c in den.coeffs))
    n = [c.numerator * (dn // c.denominator) for c in reversed(num.coeffs)]
    d = [c.numerator * (dd // c.denominator) for c in reversed(den.coeffs)]
    _, n, d = dup_inner_gcd(n, d, ZZ)
    lead = d[0]
    return (ring.poly([Fraction(c * dd, lead * dn) for c in reversed(n)]),
            ring.poly([Fraction(c, lead) for c in reversed(d)]))


class TestCharacteristicZeroRows:
    """Over Q (in Q(t) and Q(x)) a RatFunc is stored as reduced rows of
    Z[t], as one over Q(t) is stored as reduced rows of Z[t][x]; num, den,
    == and hash must be those of the Fraction-cofactor canonical form."""

    @pytest.mark.parametrize("var", ["t", "x"])
    def test_agrees_with_the_fraction_cofactor_form(self, var):
        field = FunctionField(QQ, var)
        rng = random.Random(50)
        for _ in range(200):
            a, b, c = (_nonzero_poly(rng, field.ring, 3) for _ in range(3))
            num, den = a * c, b * c
            h = RatFunc(field, num, den)
            ref_num, ref_den = _fraction_canonical(num, den)
            assert (h.num, h.den) == (ref_num, ref_den)
            via_ops = field.from_poly(num) / field.from_poly(den)
            via_ref = RatFunc(field, ref_num, ref_den)
            assert h == via_ops == via_ref
            assert hash(h) == hash(via_ops) == hash(via_ref)
            assert (via_ops.num, via_ops.den) == (ref_num, ref_den)
            assert h - via_ref == field.zero() and not h - via_ref

    @pytest.mark.parametrize("level", [0, 1])
    def test_from_poly_rows_are_reduced(self, level):
        qt = FunctionField(QQ, "t")
        field = qt if level == 0 else FunctionField(qt, "x")
        t = qt.gen()
        rng = random.Random(51 + level)
        polys = [field.ring.zero(), field.ring.one(),
                 field.ring.poly([Fraction(3, 4), Fraction(-5, 6)])
                 if level == 0 else
                 field.ring.poly([t / 2, 3 / (2 * t + 2), (t + 1) / 4])]
        polys += [sample_poly(rng, field.ring, 3) for _ in range(100)]
        for f in polys:
            x = field.from_poly(f)
            assert x.field.level == level
            assert x.field.kernel.reduced(*x.rows) == x.rows
            assert x.num is f and x.den.is_one() and x.is_polynomial()
            assert x == RatFunc(field, f, field.ring.one())

    def test_tower_arithmetic_with_integer_content(self, qt):
        ex = FunctionField(qt, "x")
        t = qt.gen()
        x = ex.ring.gen()
        rng = random.Random(52)
        contents = [t / 2, 3 / (2 * t + 2), Fraction(4, 9) * t * t,
                    (6 * t + 4) / (9 * t - 3), qt.from_int(12)]
        for _ in range(60):
            a, b = (RatFunc(ex, ex.ring.poly(rng.sample(contents, 2)) * x
                            + rng.choice(contents),
                            ex.ring.poly(rng.sample(contents, 2)))
                    for _ in range(2))
            results = [
                (a + b, RatFunc(ex, a.num * b.den + b.num * a.den,
                                a.den * b.den)),
                (a * b, RatFunc(ex, a.num * b.num, a.den * b.den)),
                (a / b, RatFunc(ex, a.num * b.den, a.den * b.num)),
                (a - b, RatFunc(ex, a.num * b.den - b.num * a.den,
                                a.den * b.den)),
            ]
            for got, want in results:
                assert (got.num, got.den) == (want.num, want.den)
                assert got == want and hash(got) == hash(want)
                assert got.den.is_monic()


def _sympy_poly(f, p):
    """f over F_p as a sympy Poly with the same coefficients."""
    return sympy.Poly([c.lift_int() for c in reversed(f.coeffs)] or [0],
                      sympy.Symbol("x"), modulus=p)


def _gf_ints(f):
    return [c.lift_int() for c in reversed(f.coeffs)]


class TestPrimeFieldPolynomials:
    """Over a prime field, products, division and gcd run on galoistools'
    int rows; each is checked against its defining property and sympy."""

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_divmod_gcd_and_products(self, p):
        ring = PolyRing(FF(p), "x")
        rng = random.Random(p)
        for _ in range(100):
            f = sample_poly(rng, ring, 8)
            g, c = _nonzero_poly(rng, ring, 5), _nonzero_poly(rng, ring, 3)
            q, r = divmod(f, g)
            assert q * g + r == f and r.degree() < g.degree()
            h = poly_gcd(f * c, g * c)
            assert h.is_monic() and not (f * c) % h and not (g * c) % h
            assert not h % c.monic()
            assert _gf_ints(h) == [int(x) % p for x in _sympy_poly(
                f * c, p).gcd(_sympy_poly(g * c, p)).all_coeffs()]
            want = (_sympy_poly(f, p) * _sympy_poly(g, p)).all_coeffs()
            assert _gf_ints(f * g) == ([int(x) % p for x in want] if f else [])


def _divisor_search(g):
    """Irreducible factors of a monic squarefree g over F_q by trying every
    monic divisor in ascending degree and index order, so each divisor found
    is irreducible (the factoriser that distinct-degree factorisation
    replaced, kept as a reference)."""
    ring, field = g.ring, g.ring.field
    factors = []
    while g.degree() > 0:
        found = g
        for k in range(1, g.degree() // 2 + 1):
            for index in range(field.order ** k):
                coeffs = []
                for _ in range(k):
                    index, r = divmod(index, field.order)
                    coeffs.append(field.element_at(r))
                h = ring.poly(coeffs + [field.one()])
                if not g % h:
                    found = h
                    break
            if found is not g:
                break
        factors.append(found)
        g = g // found
    return factors


def _sorted_factors(factors):
    return sorted(factors, key=lambda h: (h.degree(), fields._poly_index(h)))


def _product(ring, factors):
    out = ring.one()
    for h in factors:
        out = out * h
    return out


def _repeated_product(rng, ring):
    """c * prod g_i^m_i for 1-3 random monic g_i of degree 1-3 and m_i in
    {1, 2, p, p + 1, 2p}, p the characteristic."""
    field, p = ring.field, ring.field.p
    f = ring.poly([field.element_at(rng.randrange(1, field.order))])
    for _ in range(rng.randint(1, 3)):
        g = ring.poly([field.element_at(rng.randrange(field.order))
                       for _ in range(rng.randint(1, 3))] + [field.one()])
        f = f * g ** rng.choice([1, 2, p, p + 1, 2 * p])
    return f


class TestFiniteFieldFactoring:
    """Distinct- and equal-degree factorisation against galoistools over
    prime fields, and against the divisor search over F_9 and F_25."""

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_agrees_with_galoistools_on_squarefree_products(self, p):
        ring = PolyRing(FF(p), "x")
        rng = random.Random(50 + p)
        seen = 0
        while seen < 40:
            parts = [ring.poly([rng.randrange(p) for _ in range(n)] + [1])
                     for n in rng.choices(range(1, 5), k=rng.randint(1, 4))]
            g = _product(ring, parts)
            if not gf_sqf_p(_gf_ints(g), p, sympy.ZZ):
                continue
            seen += 1
            lead, facs = factor(g)
            assert lead == FF(p).one() and all(m == 1 for _, m in facs)
            got = [h for h, _ in facs]
            assert _product(ring, got) == g
            assert sorted(_gf_ints(h) for h in got) == \
                sorted(gf_factor_sqf(_gf_ints(g), p, sympy.ZZ)[1])

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_irreducibility_agrees_with_ben_or(self, p):
        """Also on squares and other inputs that are not squarefree."""
        ring = PolyRing(FF(p), "x")
        rng = random.Random(60 + p)
        for _ in range(60):
            f = _nonzero_poly(rng, ring, 7)
            for g in (f, f * f, f * ring.gen()):
                if g.degree() > 0:
                    assert is_irreducible(g) == gf_irred_p_ben_or(
                        _gf_ints(g.monic()), p, sympy.ZZ)

    @pytest.mark.parametrize("q", [9, 25])
    def test_agrees_with_divisor_search_up_to_degree_three(self, q):
        """Every monic squarefree polynomial of degree <= 3, except that over
        F_25 the cubics are taken up to translation x -> x + c, which maps
        factorisations to factorisations: in characteristic 5 those with no
        x^2 term (all 15,625 take over 2 minutes on a 2-core machine)."""
        k = GF(q)
        ring = PolyRing(k, "x")
        for n in range(1, 4):
            for index in range(q ** n):
                coeffs = []
                for _ in range(n):
                    index, r = divmod(index, q)
                    coeffs.append(k.element_at(r))
                if q == 25 and n == 3 and coeffs[2]:
                    continue
                g = ring.poly(coeffs + [k.one()])
                if poly_gcd(g, g.derivative()).degree() > 0:
                    continue
                want = _divisor_search(g)
                lead, facs = factor(g)
                assert lead == k.one() and all(m == 1 for _, m in facs)
                got = [h for h, _ in facs]
                assert got == _sorted_factors(want)
                assert _product(ring, got) == g
                assert is_irreducible(g) == (len(want) == 1)

    @pytest.mark.parametrize("p", [3, 5])
    def test_repeated_factors_agree_with_galoistools(self, p):
        """Seeded products c * prod g_i^m_i, m_i in {1, 2, p, p + 1, 2p}:
        a factor's multiplicity adds up across the Musser parts, the p-th
        root recursion included (g_i may be reducible or repeat)."""
        ring = PolyRing(FF(p), "x")
        rng = random.Random(70 + p)
        for _ in range(40):
            f = _repeated_product(rng, ring)
            lead, facs = factor(f)
            want_lead, want = gf_factor(_gf_ints(f), p, sympy.ZZ)
            assert lead.lift_int() == want_lead
            assert sorted((_gf_ints(h), m) for h, m in facs) == sorted(want)

    def test_repeated_factors_over_f9(self):
        k = GF(9)
        ring = PolyRing(k, "x")
        rng = random.Random(79)
        for _ in range(25):
            f = _repeated_product(rng, ring)
            lead, facs = factor(f)
            assert all(h.is_monic() and is_irreducible(h) for h, _ in facs)
            assert len({h for h, _ in facs}) == len(facs)
            assert [h for h, _ in facs] == _sorted_factors(h for h, _ in facs)
            assert _product(ring, [h ** m for h, m in facs]).scale(lead) == f

    @pytest.mark.parametrize("p, d, modulus", [
        (3, 2, (1, 0, 1)), (3, 3, (1, 2, 0, 1)), (3, 4, (2, 1, 0, 0, 1)),
        (3, 5, (1, 2, 0, 0, 0, 1)), (3, 6, (2, 1, 0, 0, 0, 0, 1)),
        (3, 7, (2, 0, 1, 0, 0, 0, 0, 1)), (5, 2, (2, 0, 1)),
        (5, 3, (1, 1, 0, 1)), (5, 4, (2, 0, 0, 0, 1)), (7, 2, (1, 0, 1)),
        (7, 3, (2, 0, 0, 1)), (11, 2, (1, 0, 1)), (13, 3, (2, 0, 0, 1)),
        (101, 2, (2, 0, 1)), (101, 3, (1, 1, 0, 1)),
        (1000000007, 2, (1, 0, 1)),
    ])
    def test_canonical_modulus_is_first_irreducible(self, p, d, modulus):
        assert fields.canonical_modulus(p, d) == modulus
        for index in range(p ** d):
            digits = []
            for _ in range(d):
                index, r = divmod(index, p)
                digits.append(r)
            if gf_irred_p_ben_or([1] + digits[::-1], p, sympy.ZZ):
                break
        assert tuple(digits) + (1,) == modulus


class TestSquareClasses:
    def test_rational_square_class(self):
        r, s = square_class_reduce(Fraction(72, 25))
        assert r == 2 and r * s * s == Fraction(72, 25)
        r, s = square_class_reduce(Fraction(-12))
        assert r == -3

    def test_function_field_square_class(self, qt):
        t = qt.gen()
        x = 4 * t ** 3 * (t + 1) ** 2
        r, s = square_class_reduce(x)
        assert r * s * s == x
        assert r == t

    def test_finite_field_square_class(self):
        f5 = FF(5)
        r, s = square_class_reduce(f5.from_int(2))
        assert r * s * s == f5.from_int(2)
        assert not is_square(r, f5)[0]

    def test_char_p_square_class(self, f3t):
        t = f3t.gen()
        x = (t + 1) ** 3 * t ** 2
        r, s = square_class_reduce(x)
        assert r * s * s == x


def _sqf_fields():
    return {"Q": QQ, "Q(t)": FunctionField(QQ, "t"), "F_3": GF(3),
            "F_9": GF(9), "F_3(t)": FunctionField(GF(3), "t"),
            "F_9(t)": FunctionField(GF(9), "t")}


def _sqf_product(rng, ring, p, factors):
    """lead * prod g_i^m_i, up to ``factors`` g_i, with m_i in {1, 2, p,
    p + 1, 2p} and the g_i of degree at most 2, below p = 3, so that no
    factor over F_q(t) is inseparable."""
    f = ring.poly([sample_field_element(rng, ring.field, nonzero=True)])
    for _ in range(rng.randint(1, factors)):
        f = f * _nonzero_poly(rng, ring, 2) ** rng.choice(
            [1, 2, p, p + 1, 2 * p])
    return f


def _to_sympy(f):
    """f as a sympy Poly over Q or F_p."""
    x, field = sympy.Symbol(f.ring.var), f.ring.field
    if field == QQ:
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f.coeffs)], x, domain="QQ")
    return sympy.Poly([c.lift_int() for c in reversed(f.coeffs)], x,
                      modulus=field.p)


class TestSquarefreeOracle:
    """``squarefree_decomposition`` on seeded products prod g_i^m_i, with
    multiplicities that reach the p-th-root step, checked by its definition
    (``Poly.derivative`` is the separability reference) and over Q and F_3
    against sympy; ``is_square`` and ``square_class_reduce``, which share
    one square split, must agree on the same products."""

    @pytest.mark.parametrize("name", list(_sqf_fields()))
    def test_decomposition_by_its_definition(self, name):
        k = _sqf_fields()[name]
        ring, p = PolyRing(k, "x"), k.characteristic or 3
        rng = random.Random(2401)
        for _ in range(12):
            f = _sqf_product(rng, ring, p, 3)
            lead, parts = squarefree_decomposition(f)
            rebuilt = ring.one()
            for g, m in parts:
                assert g.is_monic() and g.degree() > 0
                assert poly_gcd(g, g.derivative()).is_one(), (f, g)
                rebuilt = rebuilt * g ** m
            assert rebuilt.scale(lead) == f
            for (g, _), (h, _) in itertools.combinations(parts, 2):
                assert poly_gcd(g, h).is_one(), (f, g, h)
            ms = [m for _, m in parts]
            assert ms == sorted(set(ms))
            if name in ("Q", "F_3"):
                assert ([(_to_sympy(g), m) for g, m in parts]
                        == _to_sympy(f).sqf_list()[1]), f

    @pytest.mark.parametrize("name", list(_sqf_fields()))
    def test_square_exactly_when_the_class_is_one(self, name):
        K = FunctionField(_sqf_fields()[name], "x")
        p = K.characteristic or 3
        rng = random.Random(2402)
        for _ in range(6):
            x = (K.from_poly(_sqf_product(rng, K.ring, p, 2))
                 / K.from_poly(_sqf_product(rng, K.ring, p, 1)))
            h = K.from_poly(_nonzero_poly(rng, K.ring, 1))
            for y in (x, x * h * h, h * h):
                r, s = square_class_reduce(y)
                assert r * s * s == y
                ok, root = is_square(y)
                assert ok == (r == 1), y
                assert not ok or root * root == y


def _monic_irreducibles(k, d):
    """Every monic irreducible of degree 2 or 3 over k: for those degrees,
    irreducible means no root in k, found by trying every element."""
    ring = PolyRing(k, "t")
    elements = [k.element_at(i) for i in range(k.order)]
    for index in range(k.order ** d):
        coeffs = [elements[(index // k.order ** j) % k.order] for j in range(d)]
        pi = ring.poly(coeffs + [k.one()])
        if all(pi(x) for x in elements):
            yield pi


def _coordinates(r, k, e):
    """The F_p-coordinates of r (degree < e): coefficient by coefficient."""
    return [x for j in range(e)
            for x in (r.coeffs[j] if j <= r.degree() else k.zero()).coeffs]


def _rank_mod_p(rows, p):
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] * inv
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _ref_divmod(f, g):
    """Long division of coefficient tuples over F_q, one FFElement
    operation at a time."""
    rem, inv = list(f), 1 / g[-1]
    quo = [g[-1].field.zero()] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        c, shift = rem[-1] * inv, len(rem) - len(g)
        quo[shift] = c
        for j, b in enumerate(g):
            rem[shift + j] = rem[shift + j] - c * b
        while rem and not rem[-1]:
            rem.pop()
    return tuple(quo), tuple(rem)


def _ref_gcd(f, g):
    """Monic gcd of coefficient tuples by Euclid on ``_ref_divmod``."""
    while g:
        f, g = g, _ref_divmod(f, g)[1]
    return tuple(c / f[-1] for c in f)


def _ref_order(f, pi):
    m = 0
    while True:
        quo, rem = _ref_divmod(f, pi)
        if rem:
            return m
        f, m = quo, m + 1


class TestFqRowsAgainstSchoolbook:
    """F_q[t], F_q(t) and F_q(t)(x) on rows (``_FqRows``, ``_FqxRows``)
    against schoolbook routines on FFElement coefficients, on seeded
    draws; places of degree 2 and 3 are irreducible when they have no root."""

    QS = [3, 7, 9, 25, 27]

    @pytest.mark.parametrize("q", QS)
    def test_products_divisions_and_gcds(self, q):
        ring = PolyRing(GF(q), "t")
        rng = random.Random(q)
        for _ in range(40):
            f, g, h = (_nonzero_poly(rng, ring, 5) for _ in range(3))
            assert (f * g).coeffs == _schoolbook(f, g), (f, g)
            quo, rem = divmod(f * h + g, h)
            assert (quo.coeffs, rem.coeffs) == \
                _ref_divmod((f * h + g).coeffs, h.coeffs), (f, g, h)
            assert poly_gcd(f * h, g * h).coeffs == \
                _ref_gcd((f * h).coeffs, (g * h).coeffs), (f, g, h)

    @pytest.mark.parametrize("q", QS)
    def test_normal_form(self, q):
        field = FunctionField(GF(q), "t")
        tower = FunctionField(field, "x")
        rng = random.Random(100 + q)
        for level in (field, tower):
            one = level.ring.field.one()
            for _ in range(12):
                a, b, c = (_nonzero_poly(rng, level.ring, 3) for _ in range(3))
                h = RatFunc(level, a * c, b * c)
                assert h.rows == RatFunc(level, a, b).rows, (a, b, c)
                assert h.rows == (level.from_poly(a * c)
                                  / level.from_poly(b * c)).rows, (a, b, c)
                assert h.den.leading() == one, h
                assert h * level.from_poly(b) == level.from_poly(a), h
                if level is field:
                    assert _ref_gcd(h.num.coeffs, h.den.coeffs) == (one,), h
                else:
                    assert _euclid(h.num, h.den).degree() == 0, h

    @pytest.mark.parametrize("q", QS)
    def test_place_orders(self, q):
        k = GF(q)
        field = FunctionField(k, "t")
        rng = random.Random(200 + q)
        places = []
        while len(places) < 4:
            d = len(places) % 3 + 1
            pi = field.ring.poly([k.element_at(rng.randrange(q))
                                  for _ in range(d)] + [k.one()])
            if d == 1 or not any(not pi(c) for c in k.elements()):
                places.append(PlaceValuation(field, pi))
        for _ in range(15):
            f, g = (_nonzero_poly(rng, field.ring, 4) for _ in range(2))
            for v in places:
                i, j = rng.randint(0, 2), rng.randint(0, 2)
                num, den = f * v.pi ** i, g * v.pi ** j
                want = (_ref_order(num.coeffs, v.pi.coeffs)
                        - _ref_order(den.coeffs, v.pi.coeffs))
                assert v.value_of(field.ratfunc(num, den)) == Value(want), \
                    (v.pi, num, den)
            assert InfinitePlaceValuation(field).value_of(field.ratfunc(f, g)) \
                == Value(g.degree() - f.degree()), (f, g)


class TestFlattening:
    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2),
                                     (7, 3), (9, 2), (25, 2)])
    def test_every_irreducible_modulus(self, q, d):
        k = GF(q)
        n = k.degree * d
        rng = random.Random(q * 10 + d)
        count = 0
        for pi in _monic_irreducibles(k, d):
            count += 1
            ring = pi.ring
            fl = FlatQuotient(k, pi)
            t = ring.gen()
            # theta is t + c for the first c in index order whose powers
            # 1, ..., theta^(n-1) have rank n over F_p
            for i in range(q):
                theta = t + k.element_at(i)
                powers = [ring.one()]
                for _ in range(n - 1):
                    powers.append((powers[-1] * theta) % pi)
                if _rank_mod_p([_coordinates(pw, k, d) for pw in powers],
                               k.p) == n:
                    break
            assert fl.theta == theta, pi
            # the flat modulus is monic of degree n and vanishes at theta
            m = fl.flat.modulus
            assert len(m) == n + 1 and m[-1] == 1, pi
            value = ring.zero()
            for c in reversed(m):
                value = (value * theta + ring.from_int(c)) % pi
            assert not value, pi
            # to_flat is a ring isomorphism with inverse from_flat
            for _ in range(3):
                a, b = (ring.poly([k.element_at(rng.randrange(q))
                                   for _ in range(d)]) for _ in range(2))
                fa, fb = fl.to_flat(a), fl.to_flat(b)
                assert fl.to_flat(a + b) == fa + fb, (pi, a, b)
                assert fl.to_flat(a * b) == fa * fb, (pi, a, b)
                assert fl.from_flat(fa) == a, (pi, a)
        assert count == {(3, 2): 3, (3, 3): 8, (5, 2): 10, (5, 3): 40,
                         (7, 2): 21, (7, 3): 112, (9, 2): 36,
                         (25, 2): 300}[q, d]

    def test_tower_is_ring_homomorphism(self):
        f9 = GF(9)
        ring = PolyRing(f9, "t")
        from conicval.fields import _canonical_nonsquare
        c = _canonical_nonsquare(f9)
        fl = FlatQuotient(f9, ring.poly([-c, f9.zero(), f9.one()]))
        assert fl.flat.order == 81
        rng = random.Random(3)
        mod = fl.modulus
        for _ in range(100):
            a = ring.poly([f9.element_at(rng.randrange(9)) for _ in range(2)])
            b = ring.poly([f9.element_at(rng.randrange(9)) for _ in range(2)])
            assert fl.to_flat((a * b) % mod) == fl.to_flat(a) * fl.to_flat(b)
            assert fl.to_flat((a + b) % mod) == fl.to_flat(a) + fl.to_flat(b)

    def test_generator_is_the_first_t_plus_c_when_t_is_not_one(self):
        # t^3+2t^2+2t+2 has its coefficients in F_3, so t generates only
        # F_27 inside F_729, and so does t + c for c in F_3 (indices 0-2);
        # t + c for any other c of F_9 generates F_729
        f9 = GF(9)
        ring = PolyRing(f9, "t")
        fl = FlatQuotient(f9, ring.poly([2, 2, 2, 1]))
        assert fl.theta == ring.gen() + f9.element_at(3)
        assert fl.flat.order == 729
        rng = random.Random(5)
        for _ in range(20):
            a = ring.poly([f9.element_at(rng.randrange(9)) for _ in range(3)])
            assert fl.from_flat(fl.to_flat(a)) == a

    def test_generator_search_steps_by_blocks_of_p(self, monkeypatch, capsys):
        """F_p(theta + c + l) = F_p(theta + c) for l in F_p, so one c per
        block of p indices is tried: over F_(10007^2), t fails and so does
        every t + l, and the two residue fields are flattened in 4
        eliminations, not 20,016."""
        calls = []
        eliminate = FlatQuotient._eliminate
        monkeypatch.setattr(FlatQuotient, "_eliminate",
                            lambda self, theta: calls.append(theta)
                            or eliminate(self, theta))
        assert main(["quat", "decide", "--val",
                     "Fq(t):q=100140049,place=t^3-t-1", "--a", "t^3-t-1",
                     "--b", "1"]) == 0
        assert "no_extension_algebra_split" in capsys.readouterr().out
        assert len(calls) <= 4

    def test_roundtrip(self):
        f3 = FF(3)
        ring = PolyRing(f3, "t")
        fl = FlatQuotient(f3, ring.poly([1, 0, 1]))
        for i in range(9):
            e = fl.flat.element_at(i)
            assert fl.to_flat(fl.from_flat(e)) == e

    def test_reducible_modulus_rejected(self):
        f3 = FF(3)
        ring = PolyRing(f3, "t")
        with pytest.raises(UnsupportedField):
            FlatQuotient(f3, ring.poly([-1, 0, 1]))   # t^2 - 1

    def test_known_irreducible_moduli_are_not_retested(self, monkeypatch):
        # a factor that factor() returned, as the place of a local symbol
        from conicval.quaternion import QuaternionAlgebra, is_split
        f3t = FunctionField(FF(3), "t")
        calls = []
        real = fields._is_irreducible_ff
        monkeypatch.setattr(fields, "_is_irreducible_ff",
                            lambda K, row: calls.append(row) or real(K, row))
        t = f3t.gen()
        assert is_split(QuaternionAlgebra(f3t, t * t + 1, t)).split
        assert calls == []


class TestConstructors:
    def test_no_polynomials_over_a_tower(self, qt):
        with pytest.raises(UnsupportedField):
            PolyRing(FunctionField(qt, "x"), "y")

    def test_characteristic_two_rejected(self):
        with pytest.raises(UnsupportedField):
            FF(2)

    def test_nonprime_rejected(self):
        with pytest.raises(UnsupportedField):
            FF(9)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(UnsupportedField):
            FF(5, (-1, 0, 1))   # u^2 - 1 splits

    def test_gf_prime_power(self):
        k = GF(27)
        assert k.p == 3 and k.degree == 3 and k.order == 27
        assert fields._split_prime_power(3 ** 7) == (3, 7)
        assert fields._split_prime_power(101) == (101, 1)
        for q in (1, 12, 15, 2 ** 10, 3 ** 4 * 5 ** 4):
            with pytest.raises(UnsupportedField, match="odd prime power"):
                GF(q)

    def test_large_prime_builds_at_once(self):
        start = time.thread_time()
        k = GF(10 ** 9 + 7)
        field = parse_base_field("Fq(t):q=1000000007")
        assert time.thread_time() - start < 1
        assert (k.p, k.degree) == (10 ** 9 + 7, 1)
        assert field.coefficient_field == k

    def test_sqrt_exact(self):
        assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
        with pytest.raises(ZeroInput):
            sqrt_exact(Fraction(2))
