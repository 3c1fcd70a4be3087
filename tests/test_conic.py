import random
import time
from fractions import Fraction

import pytest

from conicval.cli import parse_field_element, parse_valuation
from conicval.conic import (ConicFieldElement, ConicFunctionField,
                            DistinguishedExtension, _even_odd, analyze)
from conicval.errors import UnsupportedField
from conicval.fields import QQ, FunctionField, Poly, RatFunc
from conicval.gauss import GaussExtension, gauss_extension
from conicval.oracle import (sample_conic_element, sample_field_element,
                             sample_ratfunc, valuation_axiom_fuzz)
from conicval.valuation import PAdicValuation
from conicval.value import INFINITY, Value


def _galois_norm(e):
    """N_{F/E(x^2)}(e) as an element of E(z), z = x^2.

    F/E(x^2) is biquadratic with group generated by s -> -s and x -> -x, so
    the norm is n1(x) * n1(-x) with n1 = f^2 - g^2 * (a*x^2 + b)."""
    cf = e.cf
    n1 = e.f * e.f - e.g * e.g * cf.norm_poly
    n1_neg = RatFunc(cf.ef, n1.num.subs_neg(), n1.den.subs_neg())
    even, odd = _even_odd(n1 * n1_neg, cf.zfield)
    assert not odd
    return even


def _subs_square(rf: RatFunc, tfield: FunctionField) -> RatFunc:
    """Substitute the square of the target variable: p(z) -> p(T^2)."""

    def spread(p: Poly) -> Poly:
        coeffs = []
        for c in p.coeffs:
            coeffs.append(c)
            coeffs.append(tfield.ring.field.zero())
        return tfield.ring.poly(coeffs[:-1] if coeffs else [])

    return RatFunc(tfield, spread(rf.num), spread(rf.den))


def _scale_argument(rf: RatFunc, lam) -> RatFunc:
    """p(z) -> p(lambda * z) for a base-field constant lambda."""
    fld = rf.field

    def tr(p: Poly) -> Poly:
        acc = fld.ring.field.one()
        out = []
        for c in p.coeffs:
            out.append(c * acc)
            acc = acc * lam
        return fld.ring.poly(out)

    return RatFunc(fld, tr(rf.num), tr(rf.den))


def _w1_value(w, h):
    """w1(h) for h in E(z), w1 the Gauss extension with respect to a*z/b:
    the identity-pivot Gauss value of h((b/a)*y).  Independent of
    ``value_of``'s rows and of the non-identity pivot path of
    ``GaussExtension``."""
    cf = w.conic_field
    return GaussExtension(w.v, cf.zfield.gen()).value_of(
        _scale_argument(h, cf.b / cf.a))


def _wstar(base, a, b, v):
    return DistinguishedExtension(v, ConicFunctionField(base, a, b))


@pytest.fixture(scope="module")
def wstar_minus_one(qt, vt):
    return _wstar(qt, -1, -1, vt)


@pytest.fixture(scope="module")
def wstar_t_one(qt, vt):
    return _wstar(qt, qt.gen(), 1, vt)


# With a pivot other than the identity, ``GaussExtension`` gives base-field
# constants the value 0 over Q(t) and F_q(t) and crashes over Q.  w* builds
# no Gauss extension (it values and takes residues on rows with omega), and
# the tests value w1 through an identity pivot (``_w1_value``), so the
# defect now lives only in ``GaussExtension``.
GAUSS_CONSTANT_DEFECT = ("gauss._rewrite does not coerce a constant numerator "
                         "or denominator into E(_y) when the pivot is not the "
                         "identity")


class TestGaloisNormOracle:
    """w* is the unique extension of w1 to F, so w1(N(e)) == 4*w*(e), w1
    valued by ``_w1_value``."""

    @pytest.mark.parametrize("fixture", ["wstar_minus_one", "wstar_t_one"])
    def test_norm_identity_over_qt(self, fixture, request):
        w = request.getfixturevalue(fixture)
        rng = random.Random(7)
        for _ in range(15):
            e = sample_conic_element(rng, w.conic_field)
            assert _w1_value(w, _galois_norm(e)) == 4 * w.value_of(e), e

    def test_norm_identity_over_q5(self):
        w = _wstar(QQ, 2, 3, PAdicValuation(5))
        rng = random.Random(7)
        for _ in range(15):
            e = sample_conic_element(rng, w.conic_field)
            assert _w1_value(w, _galois_norm(e)) == 4 * w.value_of(e), e


def _quadruple_value(w, e):
    """min of w1(e_i) + beta_i over the quadruple, with w1(e_i) from
    ``_w1_value`` and beta = (0, gamma, v(b)/2, gamma + v(b)/2) the values
    of (1, x, s, xs), gamma = (v(b) - v(a))/2."""
    gamma, half_b = Fraction(w.vb - w.va, 2), Fraction(w.vb, 2)
    best = INFINITY
    for ei, bi in zip(e.quadruple(), (0, gamma, half_b, gamma + half_b)):
        if ei:
            best = min(best, _w1_value(w, ei) + Value(bi))
    return best


def _check_rows_against_quadruple(val, a, b, seed):
    """w* on rows against ``_quadruple_value`` on 20 nonzero elements whose
    four parts are drawn in E(z), 40% of the draws constants of E (zero
    included)."""
    v = parse_valuation(val)
    base = v.base
    w = _wstar(base, parse_field_element(a, base),
               parse_field_element(b, base), v)
    cf = w.conic_field
    x = cf.ef.gen()
    rng = random.Random(seed)

    def part():
        if rng.random() < 0.4:    # constant in z, possibly zero
            return cf.ef.coerce(sample_field_element(rng, base))
        return _subs_square(sample_ratfunc(rng, cf.zfield, 2, 1), cf.ef)

    checked = 0
    while checked < 20:
        e = cf.element(part() + part() * x, part() + part() * x)
        if e:
            assert w.value_of(e) == _quadruple_value(w, e), e
            checked += 1


class TestRowValues:
    """w* runs on the rows of Z[x], Z[t][x] or F_q[t][x] at every base
    field; it agrees with the quadruple, parts constant in z included."""

    @pytest.mark.parametrize("place", ["t", "t-2", "inf"])
    @pytest.mark.parametrize("a, b", [("-1", "-1"), ("t", "1"), ("1", "t")])
    def test_agrees_with_quadruple(self, place, a, b):
        _check_rows_against_quadruple(f"Q(t):place={place}", a, b, 37)

    @pytest.mark.parametrize("val", ["Fq(t):q=3,place=t", "Fq(t):q=5,place=t^2+2",
                                     "Fq(t):q=9,place=inf"])
    @pytest.mark.parametrize("a, b", [("-1", "-1"), ("t", "1"), ("1", "t")])
    def test_agrees_with_quadruple_over_fq(self, val, a, b):
        _check_rows_against_quadruple(val, a, b, 41)

    @pytest.mark.parametrize("a, b", [("-1", "-1"), ("2", "3"), ("3", "10")])
    def test_agrees_with_quadruple_over_q5(self, a, b):
        _check_rows_against_quadruple("Q:p=5", a, b, 43)


class TestUnreducedParts:
    """w* reads the pairs that f and g store (``RatFunc.fraction``),
    unreduced at level 1: an element whose parts hide a common factor,
    constants (x+1)*c/(x+1) with c = pi^k*u and parts constant in z
    included, gets the value of its canonical copy."""

    @pytest.mark.parametrize("val, a, b", [("Q(t):place=t", "-1", "-1"),
                                           ("Q(t):place=t", "t", "1"),
                                           ("Q:p=5", "2", "3")])
    def test_unreduced_and_canonical_agree(self, val, a, b):
        v = parse_valuation(val)
        base = v.base
        w = _wstar(base, parse_field_element(a, base),
                   parse_field_element(b, base), v)
        cf, ex = w.conic_field, w.conic_field.ef
        x = ex.gen()
        rng = random.Random(61)

        def hidden(h):
            g = sample_field_element(rng, ex, nonzero=True) * (x + 1)
            return h * g / g

        def part():
            r = rng.random()
            if r < 0.3:     # (x+1)*c/(x+1), c = pi^k*u, a constant of E
                c = (v.uniformizer ** rng.randint(-2, 2)
                     * sample_field_element(rng, base, nonzero=True))
                return (x + 1) * c / (x + 1)
            if r < 0.5:     # constant in z
                h = sample_ratfunc(rng, cf.zfield, 2, 1)
                return hidden(_subs_square(h, ex))
            return hidden(sample_ratfunc(rng, ex, 3, 2))

        unreduced = 0
        for _ in range(20):
            f, g = part(), part()
            canonical = [RatFunc(ex, _rows=ex.kernel.reduced(*h.fraction),
                                 _reduced=True) for h in (f, g)]
            unreduced += sum(h.fraction != c.rows
                             for h, c in zip((f, g), canonical))
            e = ConicFieldElement(cf, f, g)
            if e:
                assert w.value_of(e) == w.value_of(cf.element(*canonical)), e
        assert unreduced >= 20 or ex.level == 0


class TestGaussConstantDefectOverFq:
    """The F_q(t) form of the Gauss-constant defect: t has value 1 at the
    place t.  w* gets it right on rows, but a Gauss extension with a pivot
    other than x values t through ``_rewrite``."""

    def test_wstar_of_t(self, run_cli):
        code, doc = run_cli("eval", "--val", "Fq(t):q=3,place=t", "--a", "t",
                            "--b", "1", "--f", "t", "--g", "0")
        assert code == 0 and doc["result"]["value"] == "1"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=GAUSS_CONSTANT_DEFECT)
    def test_gauss_value_of_t(self, run_cli):
        code, doc = run_cli("gauss", "--val", "Fq(t):q=3,place=t", "--pivot",
                            "t*x", "--eval", "t")
        assert code == 0 and doc["result"]["value"] == "1"


class TestTailPairs:
    """The seed-0 axiom fuzz through pairs 20, 22, 30 and 31, the slowest
    of the benchmark's named tail pairs."""

    def test_minus_one_minus_one(self, wstar_minus_one):
        report = valuation_axiom_fuzz(wstar_minus_one, samples=31, seed=0)
        assert report.agreement and report.checked == 31

    def test_t_one(self, wstar_t_one):
        report = valuation_axiom_fuzz(wstar_t_one, samples=32, seed=0)
        assert report.agreement and report.checked == 32


class TestResidueMultiplicativity:
    """The residue map of w* on pairs of value zero: res(e1 * e2) ==
    res(e1) * res(e2), and res(e1 + e2) == res(e1) + res(e2) when
    w*(e1 + e2) = 0.  It also sends a constant c of value 0 to v's residue
    of c, and the elements that the residue-field description names to
    their generators: x/pi^gamma and s/pi^(v(b)/2) to T and S in
    case3_units; in the rational cases the case's rho to r, and a*x^2/b to
    ``zbar_expr``.  The units are e/(pi^k * m), m one of 1, x, s and xs, so
    that value-zero elements with an s or an x survive in case2, where the
    value group is (1/2)Z.  The case2 algebras include those of ids 719
    and 732 of the benchmark corpus."""

    @staticmethod
    def _named(w):
        """(element, residue) pairs that the residue-field description
        names."""
        cf, v = w.conic_field, w.v
        x, s, pi = cf.x(), cf.s(), v.uniformizer

        def const(c):
            return cf.element(cf.ef.coerce(c))

        if w.case_tag == "case3_units":
            conic = w.residue.conic
            return [(x * const(pi ** ((w.va - w.vb) // 2)), conic.x()),
                    (s * const(pi ** (-(w.vb // 2))), conic.s())]
        rho = {"case2_a": s / (x * const(pi ** (w.va // 2))),
               "case2_b": s * const(pi ** (-(w.vb // 2))),
               "case2_ab": x * const(cf.a * pi ** (-((w.va + w.vb) // 2)))}
        return [(rho[w.case_tag], w.residue.rfield.gen()),
                (x * x * const(cf.a / cf.b), w.residue.zbar_expr)]

    @classmethod
    def _check(cls, w):
        cf, v = w.conic_field, w.v
        rng = random.Random(3)
        basis = [cf.element(1), cf.x(), cf.s(), cf.x() * cf.s()]

        def unit():
            e = sample_conic_element(rng, cf)
            ms = [m for m in basis
                  if (w.value_of(e) - w.value_of(m)).fraction.denominator == 1]
            m = rng.choice(ms)
            k = int((w.value_of(e) - w.value_of(m)).fraction)
            return e / (m * cf.element(cf.ef.coerce(v.uniformizer ** k)))

        for _ in range(12):
            e1, e2 = unit(), unit()
            r1, r2 = w.residue_of(e1), w.residue_of(e2)
            assert w.residue_of(e1 * e2) == r1 * r2, (e1, e2)
            if e1 + e2 and w.value_of(e1 + e2) == Value(0):
                assert w.residue_of(e1 + e2) == r1 + r2, (e1, e2)
        for _ in range(6):
            c = sample_field_element(rng, v.base, nonzero=True)
            c = c * v.uniformizer ** -int(v.value_of(c).fraction)
            assert w.residue_of(cf.element(cf.ef.coerce(c))) == \
                v.residue_of(c), c
        for e, r in cls._named(w):
            assert w.value_of(e) == Value(0) and w.residue_of(e) == r, e

    def test_minus_one_minus_one(self, wstar_minus_one):
        self._check(wstar_minus_one)

    @pytest.mark.parametrize("val, a, b", [("Q:p=5", "2", "3"),
                                           ("Q(t):place=t", "t^2", "3")])
    def test_a_not_b(self, val, a, b):
        v = parse_valuation(val)
        w = _wstar(v.base, parse_field_element(a, v.base),
                   parse_field_element(b, v.base), v)
        assert w.case_tag == "case3_units"
        self._check(w)

    @pytest.mark.parametrize("val, a, b, case", [
        ("Q(t):place=t", "t", "1", "case2_b"),
        ("Q(t):place=t", "1", "t", "case2_a"),
        ("Q(t):place=inf", "t^3", "t", "case2_ab"),
        ("Q:p=11", "2", "77", "case2_a"),
        ("Fq(t):q=3,place=t", "2*t^2", "2*t", "case2_a")])
    def test_case2(self, val, a, b, case):
        v = parse_valuation(val)
        w = _wstar(v.base, parse_field_element(a, v.base),
                   parse_field_element(b, v.base), v)
        assert w.case_tag == case
        self._check(w)


class TestResidueConic:
    """In case3_units the residue field of w* is the conic field
    kappa(T)(S), S^2 = a0bar*T^2 + b0bar, and residues are its elements."""

    def test_residue_is_an_element_of_the_residue_conic(self, wstar_minus_one):
        w = wstar_minus_one
        assert w.case_tag == "case3_units"
        cf = w.conic_field
        r = w.residue_of(cf.x() + cf.s())
        assert isinstance(r, ConicFieldElement)
        assert r.cf is w.residue.conic

    def test_golden_strings(self, wstar_minus_one):
        w = wstar_minus_one
        cf = w.conic_field
        x, s, t = cf.x(), cf.s(), cf.ef.coerce(cf.base.gen())
        residues = [str(w.residue_of(e)) for e in (
            x, s, x + s, (x * s + t) / (x + 1),
            (x * x + s) * (x + t * s) / (x * x + x + t + 1))]
        assert residues == [
            "T", "(1)*S", "(T) + (1)*S", "((T)/(T + 1))*S",
            "((T^3)/(T^2 + T + 1)) + ((T)/(T^2 + T + 1))*S"]
        assert str(w.residue) == "Q(T)(sqrt(-T^2 - 1))"
        assert w.residue.relation() == "S^2 = -T^2 - 1"
        assert w.residue.as_dict() == {
            "variant": "conic", "kappa": "Q", "a0bar": "-1", "b0bar": "-1",
            "a0": "-1", "b0": "-1", "scaling_u": "1", "scaling_nu": "1",
            "generators": ["T", "S"], "relation": "S^2 = -T^2 - 1"}


class TestLargeResidueFields:
    """Residue fields far too large to list: the residue-conic point comes
    from the Euler test and a Tonelli-Shanks root, not from a table."""

    def test_mersenne_prime_residue_field(self, run_cli):
        p = 2 ** 61 - 1
        start = time.thread_time()
        code, doc = run_cli("analyze", "--val", f"Q:p={p}", "--a", "2",
                            "--b", "3")
        assert time.thread_time() - start < 5
        result = doc["result"]
        assert code == 0
        assert (result["verdict"], result["extension_kind"]) == \
            ("ABSENT", "no_extension_split_residue")
        x, y, z = (int(c) for c in
                   result["decision"]["witness"]["residue_split"]["certificate"])
        assert (2 * x * x + 3 * y * y - z * z) % p == 0

    def test_degree_eight_place_over_f7(self, run_cli):
        start = time.thread_time()
        code, doc = run_cli("quat", "decide", "--val",
                            "Fq(t):q=7,place=t^8+4*t^7+5*t^6+2*t^2+4",
                            "--a=3", "--b=5")
        assert time.thread_time() - start < 5
        assert code == 0
        assert doc["result"]["kind"] == "no_extension_algebra_split"


class TestAnalyzeDecidesOnce:
    """analyze builds its family from its own decision and distinguished
    extension: one decision per call, and the family of the family
    command."""

    @pytest.mark.parametrize("val, a, b", [
        ("Q:p=5", "2", "3"), ("Q:p=5", "5", "3"), ("Q:p=7", "3", "7"),
        ("Q(t):place=t", "t", "1"), ("Fq(t):q=5,place=t", "2", "3*t"),
        ("Q(t):place=inf", "-1", "-1")])
    def test_one_decision_and_the_family_commands_members(
            self, run_cli, monkeypatch, val, a, b):
        from conicval import conic
        calls = []
        decide = conic.decide_unramified_extension

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(conic, "decide_unramified_extension", counted)
        code, doc = run_cli("analyze", "--val", val, "--a", a, "--b", b)
        assert code == 0 and len(calls) == 1
        family = doc["result"]["family"]
        if doc["result"]["verdict"] == "PRESENT":
            assert family is None
            return
        code, members = run_cli("family", "--val", val, "--a", a, "--b", b,
                                "--count", "3")
        assert code == 0 and len(calls) == 2
        assert family == members["result"]["members"]


def test_analyze_over_a_gauss_extension(qt, v3):
    # w* takes its scalars from the valuation's domain, here Q(t); (t, 2)
    # has a division residue algebra over GF(3)(t)
    cf = ConicFunctionField(qt, qt.gen(), 2)
    report = analyze(gauss_extension(v3, qt), cf)
    assert report.present and report.case_tag == "case3_units"


class TestOverAGaussExtension:
    """The Gauss extension w of the 3-adic valuation to Q(t), residue field
    GF(3)(t), as the base valuation of analyze and w*."""

    @pytest.fixture(scope="class")
    def w(self, qt, v3):
        return gauss_extension(v3, qt)

    @pytest.mark.parametrize("a, b, case, pivots", [
        ("t", "3", "case2_a", ["((1/3))*x", "((1/9))*x", "((1/27))*x"]),
        ("3", "t", "case2_b", ["3*x", "9*x", "27*x"]),
        ("-1", "3", "case2_a", ["((1/3))*x", "((1/9))*x", "((1/27))*x"])])
    def test_absent_with_a_ramified_family(self, qt, w, a, b, case, pivots):
        cf = ConicFunctionField(qt, parse_field_element(a, qt),
                                parse_field_element(b, qt))
        report = analyze(w, cf)
        assert not report.present and report.case_tag == case
        assert report.verdict.kind == "ramified_only"
        assert [str(m.pivot) for m in report.family] == pivots
        assert [m.quadratic_kind for m in report.family] == ["ramified"] * 3

    def test_even_values_need_a_point_search_over_gf3_t(self, qt, w):
        with pytest.raises(UnsupportedField,
                           match=r"no conic point search over GF\(3\)\(t\)"):
            analyze(w, ConicFunctionField(qt, qt.gen(), 1))

    @pytest.mark.parametrize("a, b", [("t", "2"), ("t", "3"), ("3", "t")])
    def test_wstar_axioms(self, qt, w, a, b):
        cf = ConicFunctionField(qt, parse_field_element(a, qt),
                                parse_field_element(b, qt))
        report = valuation_axiom_fuzz(DistinguishedExtension(w, cf), 60, 0)
        assert report.agreement and report.checked == 60, report


# (a, b) -> the pivots, first v(c), constraint and quadratic kind of the
# members of ``analyze --val Q:p=3 --family 3``; v(c) steps by 1 up (>) or
# down (<).  The pairs reach all four c*x branches of the family.
_UP, _DOWN = "2*v(c) > v(a) - v(b)", "2*v(c) < v(a) - v(b)"
_THIRDS = ("(1/3)*x", "(1/9)*x", "(1/27)*x")
_TRIPLES = ("3*x", "9*x", "27*x")
_FAMILIES = {
    (5, 3): (_THIRDS, -1, _DOWN, "ramified"),
    (3, 5): (_TRIPLES, 1, _UP, "ramified"),
    (1, 2): (_TRIPLES, 1, _UP, "split_pair"),
    (4, -1): (_TRIPLES, 1, _UP, "split_pair"),
    (2, 1): (_THIRDS, -1, _DOWN, "split_pair"),
    (-1, 4): (_THIRDS, -1, _DOWN, "split_pair"),
    (2, 9): (("(1/9)*x", "(1/27)*x", "(1/81)*x"), -2, _DOWN, "split_pair"),
    (9, 2): (("9*x", "27*x", "81*x"), 2, _UP, "split_pair"),
}


@pytest.mark.parametrize("a, b", list(_FAMILIES))
def test_family_pivots_of_each_branch(run_cli, a, b):
    pivots, k0, constraint, kind = _FAMILIES[(a, b)]
    step = 1 if constraint == _UP else -1
    code, doc = run_cli("analyze", "--val", "Q:p=3", "--a", str(a),
                        "--b", str(b), "--family", "3")
    assert code == 0 and doc["result"]["verdict"] == "ABSENT"
    assert [(m["pivot"], m["v_of_c"], m["constraint"], m["quadratic_kind"])
            for m in doc["result"]["family"]] == [
        (pivot, k0 + step * i, constraint, kind)
        for i, pivot in enumerate(pivots)]
