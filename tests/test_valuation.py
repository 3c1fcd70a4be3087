import random
from fractions import Fraction

import pytest

from conicval.errors import (ConicvalError, NegativeValue, UnsupportedPlace,
                             ZeroInput)
from conicval.fields import FF, FunctionField, QQ
from conicval.oracle import sample_field_element
from conicval.valuation import (InfinitePlaceValuation, PAdicValuation,
                                PlaceValuation)
from conicval.value import INFINITY, Value, ValueGroup


def _poly_order(f, pi):
    """The largest m with pi^m dividing f != 0, by Poly division."""
    m = 0
    while not f % pi:
        f, m = f // pi, m + 1
    return m


class TestValue:
    def test_half_integers_only(self):
        with pytest.raises(ConicvalError):
            Value(Fraction(1, 3))

    def test_ordering_with_infinity(self):
        assert Value(3) < INFINITY
        assert min(INFINITY, Value(1)) == Value(1)
        assert INFINITY + Value(2) == INFINITY

    def test_arithmetic(self):
        assert Value(1) + Value(Fraction(1, 2)) == Value(Fraction(3, 2))
        assert Value(3).half() == Value(Fraction(3, 2))
        assert (-Value(2)) == Value(-2)

    def test_group_membership(self):
        g = ValueGroup(Fraction(1, 2), (Fraction(0), Fraction(1, 2)))
        assert g.contains(Value(Fraction(-3, 2)))
        assert g.contains(INFINITY)
        z = ValueGroup(Fraction(1), (Fraction(0),))
        assert not z.contains(Value(Fraction(1, 2)))


class TestPAdic:
    def test_value_examples(self, v5):
        assert v5.value_of(Fraction(50, 3)) == Value(2)
        assert v5.value_of(Fraction(0)) == INFINITY
        assert v5.value_of(Fraction(3, 25)) == Value(-2)

    def test_residue_example(self, v5):
        assert v5.residue_of(Fraction(7, 3)) == v5.residue_field.from_int(4)

    def test_residue_negative_value(self, v5):
        with pytest.raises(NegativeValue):
            v5.residue_of(Fraction(1, 5))

    def test_unit_part_example(self, v5):
        m, u = v5.unit_part(Fraction(75, 2))
        assert (m, u) == (2, Fraction(3, 2))
        assert u * v5.uniformizer ** m == Fraction(75, 2)

    def test_unit_part_zero(self, v5):
        with pytest.raises(ZeroInput):
            v5.unit_part(Fraction(0))

    def test_dyadic_rejected(self):
        with pytest.raises(UnsupportedPlace):
            PAdicValuation(2)

    def test_v_of_two_is_zero(self, v5, v3):
        assert v5.value_of(Fraction(2)) == Value(0)
        assert v3.value_of(Fraction(2)) == Value(0)

    def test_lift_section(self, v5):
        for i in range(5):
            r = v5.residue_field.from_int(i)
            assert v5.residue_of(v5.lift(r)) == r


class TestPlace:
    def test_value_example(self, qt, vt):
        x = qt.ratfunc(qt.ring.poly([0, 1, 1]), qt.ring.poly([-1, 1]))
        assert vt.value_of(x) == Value(1)

    def test_residue_example(self, qt, vt):
        x = qt.ratfunc(qt.ring.poly([1, 1]), qt.ring.poly([2, -1]))
        assert vt.residue_of(x) == Fraction(1, 2)

    def test_unit_part_example(self, qt, vt):
        t = qt.gen()
        m, u = vt.unit_part(t ** 3 * (t + 1))
        assert m == 3 and u == t + 1

    def test_shifted_place(self, qt):
        v = PlaceValuation(qt, qt.ring.poly([-2, 1]))
        t = qt.gen()
        assert v.value_of((t - 2) ** 2 / t) == Value(2)
        assert v.residue_of(t + 1) == Fraction(3)

    def test_degree_two_place_flattens(self, f3t):
        v = PlaceValuation(f3t, f3t.ring.poly([1, 0, 1]))
        tbar = v.residue_of(f3t.gen())
        assert v.residue_field.order == 9
        assert tbar * tbar == v.residue_field.from_int(-1)
        for i in range(9):
            r = v.residue_field.element_at(i)
            assert v.residue_of(v.lift(r)) == r

    def test_qt_higher_degree_place_rejected(self, qt):
        with pytest.raises(UnsupportedPlace):
            PlaceValuation(qt, qt.ring.poly([1, 0, 1]))

    def test_reducible_place_rejected(self, f3t):
        with pytest.raises(UnsupportedPlace):
            PlaceValuation(f3t, f3t.ring.poly([-1, 0, 1]))

    def test_place_made_monic(self, f3t):
        v = PlaceValuation(f3t, f3t.ring.poly([2, 2]))
        assert v.pi.is_monic()

    @pytest.mark.parametrize("root", [0, 2, -1, Fraction(-1, 2),
                                      Fraction(3, 5)])
    def test_row_order_agrees_with_division(self, qt, root):
        """Synthetic division on integer rows against Poly division by the
        place, on rows times powers of b*t - a, a/b the root."""
        v = PlaceValuation(qt, qt.ring.poly([-root, 1]))
        a, b = Fraction(root).numerator, Fraction(root).denominator
        rng = random.Random(29)
        for _ in range(60):
            f = qt.ring.poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            if not f:
                continue
            f = f * qt.ring.poly([-a, b]) ** rng.randint(0, 3)
            row = [int(c) for c in reversed(f.coeffs)]
            assert v.row_order(row) == _poly_order(f, v.pi), f
            g = f + 1
            if g:
                assert v.value_of(qt.ratfunc(f, g)) == \
                    Value(_poly_order(f, v.pi) - _poly_order(g, v.pi))


class TestInfinitePlace:
    def test_value_example(self, f3t):
        v = InfinitePlaceValuation(f3t)
        e = f3t.ratfunc(f3t.ring.poly([1, 0, 1]), f3t.ring.poly([0] * 5 + [1]))
        assert v.value_of(e) == Value(3)

    def test_unit_part_example(self, f3t):
        v = InfinitePlaceValuation(f3t)
        x = f3t.from_poly(f3t.ring.poly([1, 0, 1]))
        m, u = v.unit_part(x)
        assert m == -2
        assert v.value_of(u) == Value(0)
        assert u == f3t.ratfunc(f3t.ring.poly([1, 0, 1]), f3t.ring.poly([0, 0, 1]))
        assert u * v.uniformizer ** m == x

    def test_residue(self, qt):
        v = InfinitePlaceValuation(qt)
        x = qt.ratfunc(qt.ring.poly([0, 2]), qt.ring.poly([1, -1]))
        assert v.residue_of(x) == Fraction(-2)
        assert v.residue_of(1 / qt.gen()) == Fraction(0)


def _valuation_fixtures():
    qt = FunctionField(QQ, "t")
    f3t = FunctionField(FF(3), "t")
    return [
        PAdicValuation(5),
        PlaceValuation(qt, qt.ring.gen()),
        PlaceValuation(f3t, f3t.ring.poly([1, 0, 1])),
        InfinitePlaceValuation(qt),
        InfinitePlaceValuation(f3t),
    ]


class TestAxioms:
    @pytest.mark.parametrize("index", range(5))
    def test_ultrametric_and_multiplicativity(self, index):
        v = _valuation_fixtures()[index]
        rng = random.Random(42 + index)
        for _ in range(10 ** 4):
            x = sample_field_element(rng, v.base, nonzero=True)
            y = sample_field_element(rng, v.base, nonzero=True)
            vx, vy = v.value_of(x), v.value_of(y)
            assert v.value_of(x * y) == vx + vy
            s = x + y
            vs = v.value_of(s) if s else INFINITY
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)

    @pytest.mark.parametrize("index", range(5))
    def test_residue_is_homomorphic(self, index):
        v = _valuation_fixtures()[index]
        rng = random.Random(142 + index)
        count = 0
        while count < 300:
            x = sample_field_element(rng, v.base, nonzero=True)
            y = sample_field_element(rng, v.base, nonzero=True)
            if v.value_of(x) < 0 or v.value_of(y) < 0:
                continue
            assert v.residue_of(x * y) == v.residue_of(x) * v.residue_of(y)
            assert v.residue_of(x + y) == v.residue_of(x) + v.residue_of(y)
            count += 1

    @pytest.mark.parametrize("index", range(5))
    def test_unit_part_roundtrip(self, index):
        v = _valuation_fixtures()[index]
        rng = random.Random(242 + index)
        for _ in range(300):
            x = sample_field_element(rng, v.base, nonzero=True)
            m, u = v.unit_part(x)
            assert v.value_of(u) == Value(0)
            assert u * v.uniformizer ** m == x

    def test_values_are_integers(self):
        for v in _valuation_fixtures():
            rng = random.Random(7)
            for _ in range(100):
                x = sample_field_element(rng, v.base, nonzero=True)
                assert v.value_of(x).is_integral()
