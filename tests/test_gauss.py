import random
from fractions import Fraction

import pytest

from conicval.cli import field_variables, parse_valuation
from conicval.errors import (ConstantInput, InvalidPivot, NonzeroValue,
                             SquareInput, ZeroInput)
from conicval.fields import FF, FunctionField, QQ, RatFunc, is_square
from conicval.gauss import (GaussExtension, gauss_extension, gauss_residue,
                            quadratic_extension_analysis, subfield_degree)
from conicval.oracle import (hensel_count, sample_field_element,
                             sample_ratfunc)
from conicval.parser import parse_element
from conicval.valuation import PAdicValuation, PlaceValuation
from conicval.value import INFINITY, Value


@pytest.fixture(scope="module")
def ex():
    return FunctionField(QQ, "x")


class TestGaussValue:
    def test_min_of_coefficient_values(self, ex, v3):
        w = gauss_extension(v3, ex)
        h = ex.from_poly(ex.ring.poly([3, 9, 27]))
        assert w.value_of(h) == Value(1)

    def test_quotient(self, ex, v3):
        w = gauss_extension(v3, ex)
        h = ex.ratfunc(ex.ring.poly([1, 3]), ex.ring.poly([3, 0, 1]))
        assert w.value_of(h) == Value(0)

    def test_function_field_coefficients(self, qt, vt):
        exqt = FunctionField(qt, "x")
        t = qt.gen()
        w = gauss_extension(vt, exqt)
        h = exqt.from_poly(exqt.ring.poly([t ** 3, qt.zero(), t]))
        assert w.value_of(h) == Value(1)

    def test_zero_is_infinite(self, ex, v5):
        w = gauss_extension(v5, ex)
        assert w.value_of(ex.zero()) == INFINITY


class TestGaussResidue:
    def test_drop_the_five(self, ex, v5):
        w = gauss_extension(v5, ex)
        h = ex.ratfunc(ex.ring.poly([5, 1]), ex.ring.poly([1, 1]))
        res = gauss_residue(w, h)
        k = w.residue_field
        assert res == k.ratfunc(k.ring.gen(), k.ring.poly([1, 1]))

    def test_inverted(self, ex, v5):
        w = gauss_extension(v5, ex)
        h = ex.ratfunc(ex.ring.poly([1, 5]), ex.ring.poly([10, 1]))
        res = gauss_residue(w, h)
        k = w.residue_field
        assert res == k.ratfunc(k.ring.one(), k.ring.gen())

    def test_function_field_case(self, qt, vt):
        exqt = FunctionField(qt, "x")
        t = qt.gen()
        w = gauss_extension(vt, exqt)
        h = exqt.ratfunc(exqt.ring.poly([t, qt.zero(), qt.one()]),
                         exqt.ring.poly([qt.one(), t]))
        res = gauss_residue(w, h)
        k = w.residue_field
        assert res == k.from_poly(k.ring.poly([0, 0, 1]))

    def test_nonzero_value_rejected(self, ex, v5):
        w = gauss_extension(v5, ex)
        with pytest.raises(NonzeroValue):
            gauss_residue(w, ex.from_poly(ex.ring.poly([5, 25])))

    def test_residue_multiplicative(self, ex, v5):
        w = gauss_extension(v5, ex)
        rng = random.Random(11)
        count = 0
        while count < 200:
            h1 = sample_ratfunc(rng, ex)
            h2 = sample_ratfunc(rng, ex)
            if not h1 or not h2:
                continue
            if w.value_of(h1) != Value(0) or w.value_of(h2) != Value(0):
                continue
            assert gauss_residue(w, h1 * h2) == \
                gauss_residue(w, h1) * gauss_residue(w, h2)
            count += 1

    def test_multiplicativity_exact(self, ex, v5):
        w = gauss_extension(v5, ex)
        rng = random.Random(12)
        for _ in range(500):
            h1 = sample_ratfunc(rng, ex)
            h2 = sample_ratfunc(rng, ex)
            if h1 and h2:
                assert w.value_of(h1 * h2) == w.value_of(h1) + w.value_of(h2)


class TestPivots:
    def test_scaled_pivot(self, ex, v5):
        w = GaussExtension(v5, ex.from_poly(ex.ring.poly([0, 5])))
        assert w.value_of(ex.gen()) == Value(-1)

    def test_shifted_scaled_pivot(self, qt, vt):
        exqt = FunctionField(qt, "x")
        t = qt.gen()
        pivot = exqt.from_poly(exqt.ring.poly([-t, t]))   # t*(x-1)
        w = GaussExtension(vt, pivot)
        assert w.value_of(exqt.from_poly(exqt.ring.poly([-1, 1]))) == Value(-1)
        assert w.residue_of(pivot) == w.residue_field.gen()

    def test_identity_pivot_matches_plain(self, ex, v5):
        w1 = gauss_extension(v5, ex)
        w2 = GaussExtension(v5, ex.gen())
        rng = random.Random(13)
        for _ in range(100):
            h = sample_ratfunc(rng, ex)
            if h:
                assert w1.value_of(h) == w2.value_of(h)

    def test_mobius_pivot(self, ex, v5):
        # Y = 1/x also generates E(x)
        w = GaussExtension(v5, ex.ratfunc(ex.ring.one(), ex.ring.gen()))
        assert w.value_of(ex.gen()) == Value(0)
        assert w.value_of(ex.from_poly(ex.ring.poly([5, 1]))) == Value(0)

    def test_constant_pivot_rejected(self, ex, v5):
        with pytest.raises(InvalidPivot):
            GaussExtension(v5, ex.from_int(7))

    def test_degree_two_pivot_rejected(self, ex, v5):
        with pytest.raises(InvalidPivot):
            GaussExtension(v5, ex.from_poly(ex.ring.poly([0, 0, 1])))

    def test_unit_part(self, ex, v5):
        w = gauss_extension(v5, ex)
        h = ex.from_poly(ex.ring.poly([25, 125]))
        m, u = w.unit_part(h)
        assert m == 2 and w.value_of(u) == Value(0)
        assert u * ex.coerce(v5.uniformizer ** m) == h


# The pivots other than x of the benchmark's Gauss fixtures, on valuations
# of ``verify --suite gauss``: x = P/Q with a constant Q (for x/t+3, Q = a
# has no Y term).  The last three pivots give a Q of degree 1.
PIVOT_FIXTURES = [("Q(t):place=t", "t*x"), ("Q(t):place=t-2", "(t-2)*x+1"),
                  ("Q(t):place=inf", "x/t+3"), ("Fq(t):q=3,place=t", "t*x+1"),
                  ("Fq(t):q=3,place=t^2+1", "(t^2+1)*x"),
                  ("Fq(t):q=5,place=inf", "2*x+t"),
                  ("Q:p=5", "(x+1)/(5*x-2)"), ("Q(t):place=t", "t/(x-t)"),
                  ("Fq(t):q=3,place=t", "(x+t)/(t*x+1)")]


class TestHomogeneousRewrite:
    """``_rewrite`` substitutes on rows; for h of positive degree it equals
    h(P/Q), the composition of ``RatFunc.__call__`` by Horner's rule.  The
    pivots are PIVOT_FIXTURES, whose first six are those of the benchmark's
    tower_fuzz, and a Moebius pivot over Q:p=7 and over F_9(t)."""

    @pytest.mark.parametrize("val, pivot", PIVOT_FIXTURES + [
        ("Q:p=7", "(x+1)/(x-1)"), ("Fq(t):q=9,place=t", "(x-t)/(t*x+1)")])
    def test_agrees_with_horner(self, val, pivot):
        v = parse_valuation(val)
        ex = FunctionField(v.base, "x")
        variables = dict(field_variables(v.base), x=ex.gen())
        w = GaussExtension(v, ex.coerce(parse_element(pivot, ex, variables)))
        rng = random.Random(19)
        checked = 0
        while checked < 25:
            h = sample_ratfunc(rng, ex, 3, 2)
            if h.degree() > 0:
                assert w._rewrite(h) == h(w._inverse), h
                checked += 1


def _rewrite_value(w, h):
    """w(h) through ``_rewrite``, with the Gauss-constant defect."""
    r = w._rewrite(h)
    return w._min_value(r.num) - w._min_value(r.den)


# identity pivots, PIVOT_FIXTURES, and Moebius pivots whose inverse has a
# denominator of degree 1, one at a non-integral root
ROW_FIXTURES = ([("Q(t):place=t", "x"), ("Q(t):place=inf", "x"),
                 ("Fq(t):q=3,place=t^2+1", "x"), ("Q:p=5", "x")]
                + PIVOT_FIXTURES
                + [("Q(t):place=inf", "(t*x+1)/(x+t)"),
                   ("Q(t):place=t+1/2", "(x+t)/(2*x-1)"),
                   ("Q:p=7", "(x+1)/(x-1)")])


class TestRowValues:
    """value_of runs on the rows of Z[x], Z[t][x] or F_q[t][x] for the
    identity pivot and for elements of positive degree; it agrees with
    ``_rewrite``."""

    @pytest.mark.parametrize("val, pivot", ROW_FIXTURES)
    def test_agrees_with_rewrite(self, val, pivot):
        v = parse_valuation(val)
        ex = FunctionField(v.base, "x")
        variables = dict(field_variables(v.base), x=ex.gen())
        w = GaussExtension(v, ex.coerce(parse_element(pivot, ex, variables)))
        t = ex.coerce(v.base.gen() if v.base != QQ else 1)
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            # x-degree 0 in num or den, and content in t
            h = (sample_ratfunc(rng, ex, rng.randint(0, 3), rng.randint(0, 2))
                 * t ** rng.randint(-2, 2) * w.uniformizer ** rng.randint(-2, 2))
            if h and (w._identity or h.degree() > 0):
                assert w.value_of(h) == _rewrite_value(w, h), h
                checked += 1


def _outcome(value_of, h):
    """value_of(h), or the AttributeError that the Gauss-constant defect
    raises on a constant over Q with a pivot other than x."""
    try:
        return value_of(h)
    except AttributeError:
        return AttributeError


class TestUnreducedPairs:
    """value_of reads the pair that h stores (``RatFunc.fraction``),
    unreduced at level 1, and picks the constant path by
    ``is_constant``: an element with a hidden common factor, constants
    (x+1)*c/(x+1) with c = pi^k*u included, gets the value of its
    canonical copy, the defect's value for constants included."""

    @pytest.mark.parametrize("val, pivot", ROW_FIXTURES)
    def test_unreduced_and_canonical_agree(self, val, pivot):
        v = parse_valuation(val)
        ex = FunctionField(v.base, "x")
        variables = dict(field_variables(v.base), x=ex.gen())
        w = GaussExtension(v, ex.coerce(parse_element(pivot, ex, variables)))
        rng = random.Random(59)
        xp1, hidden = ex.gen() + 1, 0
        for i in range(24):
            if i % 3 == 0:
                c = (v.uniformizer ** rng.randint(-2, 2)
                     * sample_field_element(rng, v.base, nonzero=True))
                h = xp1 * c / xp1
            else:
                g = (sample_field_element(rng, ex, nonzero=True)
                     * w.uniformizer)
                h = sample_ratfunc(rng, ex, 2, 2) * g / g
            canonical = RatFunc(ex, _rows=ex.kernel.reduced(*h.fraction),
                                _reduced=True)
            hidden += h.fraction != canonical.rows
            assert h.is_constant() == (canonical.degree() == 0), h
            assert (_outcome(w.value_of, h)
                    == _outcome(w.value_of, canonical)), h
        assert hidden >= 16 or ex.level == 0


class TestUnitPartOffIdentity:
    """unit_part is the one inherited from Valuation, on pivots other than x."""

    @pytest.mark.parametrize("val, pivot", PIVOT_FIXTURES)
    def test_unit_times_uniformizer_power(self, val, pivot):
        v = parse_valuation(val)
        ex = FunctionField(v.base, "x")
        variables = dict(field_variables(v.base), x=ex.gen())
        w = GaussExtension(v, ex.coerce(parse_element(pivot, ex, variables)))
        rng = random.Random(23)
        exponents = set()
        while len(exponents) < 2:
            h = sample_ratfunc(rng, ex, 3, 2) * w.uniformizer ** rng.randint(-2, 2)
            if h.degree() > 0:
                m, u = w.unit_part(h)
                assert w.value_of(u) == Value(0), h
                assert u * ex.coerce(v.uniformizer ** m) == h, h
                exponents.add(m)


class TestSubfieldDegree:
    def test_example_integral(self, ex):
        y = ex.ratfunc(ex.ring.poly([1, 0, 1]), ex.ring.gen())
        assert subfield_degree(y) == (2, True)

    def test_example_inverse(self, ex):
        y = ex.ratfunc(ex.ring.one(), ex.ring.gen())
        assert subfield_degree(y) == (1, False)

    def test_against_linear_algebra_oracle(self):
        from conicval.oracle import degree_oracle
        f7x = FunctionField(FF(7), "x")
        y = f7x.ratfunc(f7x.ring.poly([0, 1, 0, 1]), f7x.ring.poly([-1, 0, 1]))
        deg, integral = subfield_degree(y)
        assert deg == 3 and integral
        assert degree_oracle(y) == 3

    def test_constant_rejected(self, ex):
        with pytest.raises(ConstantInput):
            subfield_degree(ex.from_int(3))

    def test_invariance_moves(self, ex):
        rng = random.Random(5)
        for _ in range(100):
            y = sample_ratfunc(rng, ex, 3, 3)
            if y.degree() < 1:
                continue
            d, _ = subfield_degree(y)
            assert subfield_degree(1 / y)[0] == d
            e = Fraction(rng.randint(-3, 3))
            assert subfield_degree(y + e)[0] == d


class TestQuadraticExtensionAnalysis:
    def test_inert_example(self, v5):
        qa = quadratic_extension_analysis(v5, Fraction(2))
        assert qa.kind == "inert"
        assert qa.residue_unit == v5.residue_field.from_int(2)
        assert not is_square(qa.residue_unit, v5.residue_field)[0]

    def test_split_example(self, v5):
        qa = quadratic_extension_analysis(v5, Fraction(11))
        assert qa.kind == "split_pair"
        assert qa.sqrt_residue * qa.sqrt_residue == qa.residue_unit
        # Hensel oracle: two roots of T^2 - 11 over the 5-adics
        assert hensel_count(v5, Fraction(11), 4) == 2

    def test_ramified_example(self, v5):
        assert quadratic_extension_analysis(v5, Fraction(10)).kind == "ramified"

    def test_square_input(self, v5):
        with pytest.raises(SquareInput):
            quadratic_extension_analysis(v5, Fraction(9))

    def test_zero_input(self, v5):
        with pytest.raises(ZeroInput):
            quadratic_extension_analysis(v5, Fraction(0))

    def test_trichotomy_exhaustive(self, v5, v3):
        rng = random.Random(17)
        from conicval.oracle import sample_rational
        count = 0
        while count < 300:
            a = sample_rational(rng, 60)
            if not a or is_square(a, QQ)[0]:
                continue
            for v in (v3, v5):
                kind = quadratic_extension_analysis(v, a).kind
                assert kind in ("ramified", "split_pair", "inert")
                parity = int(v.value_of(a).fraction) % 2
                assert (kind == "ramified") == (parity == 1)
            count += 1

    def test_unit_witness_in_square_class(self, v5):
        qa = quadratic_extension_analysis(v5, Fraction(44))
        assert qa.kind in ("split_pair", "inert")
        # u differs from a by the square of an element of E
        ratio = Fraction(44) / qa.unit
        assert is_square(ratio, QQ)[0]
        assert v5.value_of(qa.unit) == Value(0)

    def test_on_gauss_extension(self, qt, vt):
        # the quadratic step of a family member: a = t*x^2 + 1 over Q(t)(x)
        exqt = FunctionField(qt, "x")
        t = qt.gen()
        w = gauss_extension(vt, exqt)
        a = exqt.from_poly(exqt.ring.poly([qt.one(), qt.zero(), t]))
        qa = quadratic_extension_analysis(w, a)
        assert qa.kind == "split_pair"
        w2 = GaussExtension(vt, exqt.from_poly(exqt.ring.poly([qt.zero(), t])))
        qa2 = quadratic_extension_analysis(w2, a)
        assert qa2.kind == "ramified"
