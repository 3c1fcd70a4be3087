import math
import random
from fractions import Fraction

import pytest

from conicval.cli import field_variables, parse_valuation
from conicval.errors import PrecisionTooLow, ZeroInput
from conicval.fields import FF, FunctionField, GF, QQ
from conicval.gauss import GaussExtension, gauss_extension
from conicval.oracle import (default_sampler, degree_oracle, hensel_count,
                             isotropy_search, sample_field_element,
                             sample_ratfunc, valuation_axiom_fuzz)
from conicval.parser import parse_element
from conicval.quaternion import (QuaternionAlgebra, conic_points, is_split,
                                 rational_scan)
from conicval.valuation import PAdicValuation
from conicval.value import Value


class TestIsotropySearch:
    def test_exhaustive_over_f5(self):
        f5 = FF(5)
        point = isotropy_search(f5.from_int(2), f5.from_int(3))
        assert point is not None
        x, y, z = point
        assert f5.from_int(2) * x * x + f5.from_int(3) * y * y == z * z
        # the value quoted for this case: (1, 1, 0) is a solution
        assert (2 * 1 + 3 * 1) % 5 == 0

    def test_minus_one_minus_one_over_q(self):
        assert isotropy_search(Fraction(-1), Fraction(-1), bound=50) is None

    def test_trivial_point(self):
        point = isotropy_search(Fraction(1), Fraction(1), bound=10)
        assert point is not None
        x, y, z = point
        assert x * x + y * y == z * z and any((x, y, z))

    def test_fractional_coefficients(self):
        point = isotropy_search(Fraction(1, 4), Fraction(3, 4), bound=20)
        if point is not None:
            x, y, z = point
            assert Fraction(1, 4) * x * x + Fraction(3, 4) * y * y == z * z


def _root_table(k):
    """The square root of least index of every square, by squaring the
    whole field in index order."""
    table = {}
    for y in k.elements():
        table.setdefault(y * y, y)
    return table


def _reference_conic_point(a, b, k, roots):
    fallback = None
    one = k.one()
    for xi in range(1, k.order):
        x = k.element_at(xi)
        z = roots.get(a * x * x + b)
        if z is not None:
            if z:
                return (x, one, z)
            if fallback is None:
                fallback = (x, one, z)
    if fallback is not None:
        return fallback
    if b in roots:
        return (k.zero(), one, roots[b])
    return (one, k.zero(), roots[a])


def _reference_unit_point(a, b, k, roots):
    for xi in range(1, k.order):
        x = k.element_at(xi)
        y = roots.get(a * x * x + b)
        if y:
            return x, y
    return None


def _reference_isotropy_rational(a, b, bound):
    for h in range(bound + 1):
        pairs = [(x, h) for x in range(h + 1)] + [(h, y) for y in range(h)]
        for x, y in pairs:
            if x == 0 and y == 0:
                continue
            t = a * x * x + b * y * y
            if t < 0 or t.denominator != 1:
                continue
            r = math.isqrt(t.numerator)
            if r * r == t.numerator:
                return Fraction(x), Fraction(y), Fraction(r)
    return None


class TestPointSearchesAgainstTables:
    """The finite-field points of ``conic_points`` (Euler test and
    Tonelli-Shanks) and the integer point scan over Q (``rational_scan``)
    give the points of the routes they replaced: whole-field root tables
    and Fraction arithmetic."""

    @pytest.mark.parametrize("q", [9, 27])
    def test_finite_field_points(self, q):
        k = GF(q)
        roots = _root_table(k)
        units = 0
        for a in k.nonzero_elements():
            for b in k.nonzero_elements():
                # is_split's certificate and the residue family's unit point
                assert is_split(QuaternionAlgebra(k, a, b)).certificate == \
                    _reference_conic_point(a, b, k, roots), (a, b)
                point = next(((x, z) for x, y, z in conic_points(a, b, k)
                              if x and y and z), None)
                assert point == _reference_unit_point(a, b, k, roots), (a, b)
                units += point is not None
        assert units > 0

    def test_rational_points(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(200):
            a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                             rng.randint(1, 8)) for _ in range(2))
            point = next(rational_scan(a, b, 25), None)
            assert point == _reference_isotropy_rational(a, b, 25), (a, b)
            hits += point is not None
        assert 0 < hits < 200


class TestDegreeOracle:
    def test_example_quadratic(self):
        f7x = FunctionField(FF(7), "x")
        y = f7x.ratfunc(f7x.ring.poly([1, 0, 1]), f7x.ring.gen())
        assert degree_oracle(y) == 2

    def test_example_cubic(self):
        f5x = FunctionField(FF(5), "x")
        y = f5x.from_poly(f5x.ring.poly([0, 0, 0, 1]))
        assert degree_oracle(y) == 3

    def test_identity(self):
        f7x = FunctionField(FF(7), "x")
        assert degree_oracle(f7x.gen()) == 1


class TestHenselCount:
    def test_lifts(self, v5):
        assert hensel_count(v5, Fraction(11), 4) == 2

    def test_no_root(self, v5):
        assert hensel_count(v5, Fraction(2), 4) == 0

    def test_exact_square(self, v5):
        assert hensel_count(v5, Fraction(9), 6) == 2

    def test_even_value_nonunit(self, v5):
        assert hensel_count(v5, Fraction(25) * 11, 5) == 2
        assert hensel_count(v5, Fraction(2, 25), 5) == 0

    def test_precision_floor(self, v5):
        with pytest.raises(PrecisionTooLow):
            hensel_count(v5, Fraction(11), 3)


class TestAxiomFuzz:
    def test_gauss_extension_agrees(self, v5):
        w = gauss_extension(v5, FunctionField(QQ, "x"))
        report = valuation_axiom_fuzz(w, samples=1000, seed=0)
        assert report.agreement and report.counterexample is None
        assert report.checked > 0

    def test_zero_samples_make_zero_checks(self, v5):
        w = gauss_extension(v5, FunctionField(QQ, "x"))
        report = valuation_axiom_fuzz(w, samples=0)
        assert (report.agreement, report.checked) == (True, 0)
        with pytest.raises(ZeroInput, match="negative sample count"):
            valuation_axiom_fuzz(w, samples=-1)

    def test_deterministic_reports(self, v5):
        w = gauss_extension(v5, FunctionField(QQ, "x"))
        r1 = valuation_axiom_fuzz(w, samples=200, seed=3)
        r2 = valuation_axiom_fuzz(w, samples=200, seed=3)
        assert r1 == r2

    def test_corrupted_evaluator_is_caught(self, v5):
        class Corrupted:
            """Deliberately wrong: reports |v(x)|, breaking multiplicativity
            whenever a positive and a negative value meet."""

            base = QQ

            def describe(self):
                return "corrupted"

            def value_of(self, x):
                if not x:
                    from conicval.value import INFINITY
                    return INFINITY
                n = v5.value_of(x)
                return n if n >= Value(0) else -n

        from conicval.oracle import sample_rational
        report = valuation_axiom_fuzz(
            Corrupted(), samples=500, seed=1,
            sampler=lambda rng: sample_rational(rng, 30))
        assert not report.agreement
        assert report.counterexample is not None


class TestDefaultSampler:
    """default_sampler draws from a valuation's domain; the draws for Gauss
    extensions and base valuations are the ones the benchmark's tower
    streams replay."""

    @staticmethod
    def _same_draws(sampler, reference):
        for seed in range(10):
            rng, ref = random.Random(seed), random.Random(seed)
            assert [sampler(rng) for _ in range(4)] == [
                reference(ref) for _ in range(4)], seed
            assert rng.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("pivot", ["x", "t*x"])
    def test_gauss_extensions(self, pivot):
        v = parse_valuation("Q(t):place=t")
        ef = FunctionField(v.base, "x")
        w = GaussExtension(v, parse_element(
            pivot, ef, dict(field_variables(v.base), x=ef.gen())))
        self._same_draws(default_sampler(w),
                         lambda rng: sample_ratfunc(rng, w.field, 2, 1))

    @pytest.mark.parametrize("val", ["Q:p=5", "Q(t):place=t",
                                     "Fq(t):q=3,place=t^2+1"])
    def test_base_valuations(self, val):
        v = parse_valuation(val)
        self._same_draws(default_sampler(v),
                         lambda rng: sample_field_element(rng, v.base))
