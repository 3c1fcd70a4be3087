"""The row kernels against independent routes, on seeded hypothesis draws.

The characteristic-0 kernels (``_INT_ROWS``: Z[x] at u = 0, Z[t][x] at
u = 1) run sums, products, exact divisions, gcds and cofactors on plain
ints in Z[x], and in Z[t][x] when a row is constant in x.  Every result
must equal sympy's dense routine at the same u, entry for entry, since
``RatFunc.rows``, hashes and printed output are built from them.  The
level-1 sum and product shared by Z[t][x] and F_q[t][x] (``_Rows``) are
checked over F_3 and F_9 against a degree-by-degree reference on the
``_FqRows`` base kernel.  The steps of
the squarefree decomposition that run on rows, ``derivative`` in every
kernel and ``pth_root`` in characteristic p, are checked against
``Poly.derivative`` and against p-th powers.  The F_q[t] long division
for q = p^k, k > 1, is checked against the generic ``Poly`` division.
Exact division at level 0 raises on a nonzero remainder, as at level 1.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.densearith import (dmp_add, dmp_exquo, dmp_mul,  # noqa: E402
                                    dmp_neg)
from sympy.polys.densebasic import (dmp_ground_LC, dmp_strip,  # noqa: E402
                                    dmp_zero_p)
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.euclidtools import dmp_inner_gcd  # noqa: E402

from conicval import fields  # noqa: E402
from conicval.errors import InvariantViolated, UnsupportedField  # noqa: E402
from conicval.fields import (_INT_ROWS, GF, QQ, FunctionField,  # noqa: E402
                             PolyRing)

SEEDED = settings(max_examples=100, derandomize=True, deadline=None,
                  database=None)

# small entries give zeros, units and cancellations; large ones pass 2^64
# (tower values reach about 263 bits)
_BIG = st.integers(2 ** 64, 2 ** 270)
_ENTRY = st.one_of(st.integers(-3, 3), _BIG, _BIG.map(lambda n: -n))
_ROW0 = st.lists(_ENTRY, max_size=4).map(lambda r: dmp_strip(r, 0))
_ROW1 = st.lists(_ROW0, max_size=3).map(lambda r: dmp_strip(r, 1))
_ROWS = (_ROW0, _ROW1)

# zero rows, inner zeros, length-1 rows and negative leading entries
_EDGES = [([], []), ([], [5]), ([-5], []), ([[]], [[]]), ([[]], [[-2]]),
          ([-4], [6, 0, -9]), ([3, 0, 0, 2], [-7]), ([-2 ** 80], [2 ** 81, 6]),
          ([[-6], [], [4, 2]], [[3]]), ([[2, 0, 1]], [[-1], []]),
          ([[1, 2], []], [[-2, -4], []])]


def _sympy_reduced(n, d, u):
    """The canonical pair of n / d by sympy: the cofactors of the gcd, with
    a positive leading integer in d."""
    if dmp_zero_p(n, u):
        return n, _INT_ROWS[u].one
    _, n, d = dmp_inner_gcd(n, d, u, ZZ)
    if dmp_ground_LC(d, u, ZZ) < 0:
        n, d = dmp_neg(n, u, ZZ), dmp_neg(d, u, ZZ)
    return n, d


def _check_int_rows(u, a, b, c):
    K = _INT_ROWS[u]
    assert K.mul(a, b) == dmp_mul(a, b, u, ZZ), (a, b)
    assert K.add(a, b) == dmp_add(a, b, u, ZZ), (a, b)
    assert K.neg(a) == dmp_neg(a, u, ZZ), a
    for f, g in ((a, b), (dmp_mul(a, c, u, ZZ), dmp_mul(b, c, u, ZZ))):
        if not (dmp_zero_p(f, u) and dmp_zero_p(g, u)):
            h, cf, cg = dmp_inner_gcd(f, g, u, ZZ)
            assert K.gcd_rows(f, g) == h, (f, g)
            assert list(K.cofactors(f, g)) == [cf, cg], (f, g)
        if not dmp_zero_p(g, u):
            assert K.reduced(f, g) == _sympy_reduced(f, g, u), (f, g)
            fg = dmp_mul(f, g, u, ZZ)
            assert K.exquo(fg, g) == dmp_exquo(fg, g, u, ZZ), (f, g)


class TestIntRowsAgainstSympy:

    @pytest.mark.parametrize("a,b", _EDGES)
    def test_edge_rows(self, a, b):
        u = int(bool(a and isinstance(a[0], list)
                     or b and isinstance(b[0], list)))
        _check_int_rows(u, a, b, [[3], [-1]] if u else [2, 0, -1])
        _check_int_rows(u, b, a, [[-5]] if u else [-5])

    @pytest.mark.parametrize("u", [0, 1])
    @SEEDED
    @given(data=st.data())
    def test_seeded_rows(self, u, data):
        a, b, c = (data.draw(_ROWS[u]) for _ in range(3))
        _check_int_rows(u, a, b, c)


def _planted(degree):
    """Z[x] rows a*c and b*c: a, b and c of degree up to ``degree`` with
    small or past-2^64 entries, so c is a common factor."""
    row = st.lists(_ENTRY, min_size=1, max_size=degree + 1).map(
        lambda r: dmp_strip(r, 0))
    return st.tuples(row, row, row).map(
        lambda abc: (dmp_mul(abc[0], abc[2], 0, ZZ),
                     dmp_mul(abc[1], abc[2], 0, ZZ)))


def _check_gcd(u, f, g):
    """gcd, cofactors and exact quotients of f and g against sympy."""
    K = _INT_ROWS[u]
    if dmp_zero_p(f, u) and dmp_zero_p(g, u):
        return
    h, cf, cg = dmp_inner_gcd(f, g, u, ZZ)
    assert K.gcd_rows(f, g) == h, (f, g)
    assert list(K.cofactors(f, g)) == [cf, cg], (f, g)
    if not dmp_zero_p(h, u):
        assert K.exquo(f, h) == cf and K.exquo(g, h) == cg, (f, g)


class TestIntGcdAgainstSympy:
    """The plain-int Z[x] gcd (sympy's heuristic step for step, sympy's
    ``dup_inner_gcd`` when it fails) and the Z[t][x] gcd with a row
    constant in x."""

    @SEEDED
    @given(fg=_planted(40))
    def test_planted_common_factor(self, fg):
        _check_gcd(0, *fg)

    @pytest.mark.parametrize("seed", range(3))
    def test_degree_100_and_more(self, seed):
        rng = random.Random(seed)
        a, b, c = ([rng.randint(-2 ** 70, 2 ** 70) or 1
                    for _ in range(rng.randint(60, 110))] for _ in range(3))
        _check_gcd(0, dmp_mul(a, c, 0, ZZ), dmp_mul(b, c, 0, ZZ))
        _check_gcd(0, a, dmp_mul(a, [1, 0, -seed - 2], 0, ZZ))

    @SEEDED
    @given(fg=_planted(12))
    def test_fallback_when_the_heuristic_fails(self, fg):
        # fg is drawn first, so the patch covers only the calls below
        real = fields._heu_gcd
        fields._heu_gcd = lambda f, g: None
        try:
            _check_gcd(0, *fg)
        finally:
            fields._heu_gcd = real

    @SEEDED
    @given(data=st.data())
    def test_row_constant_in_x(self, data):
        """One operand of length 1: its entry and the other's content have
        their gcd in Z[t], as sympy's ``_dmp_simplify_gcd`` takes it."""
        c = data.draw(_ROW0) or [1]
        rows = st.lists(_ROW0, min_size=1, max_size=4).map(
            lambda r: dmp_strip([dmp_mul(x, c, 0, ZZ) for x in r], 1))
        f, g, h = data.draw(rows), data.draw(rows)[:1], data.draw(rows)[:1]
        _check_gcd(1, f, g)
        _check_gcd(1, g, f)
        _check_gcd(1, g, h)


def _sparse_long(n):
    """Rows of length up to n with two or three nonzero entries."""
    return st.lists(st.tuples(st.integers(0, n - 1), _ENTRY), min_size=1,
                    max_size=3).map(lambda terms: dmp_strip(
                        [dict(terms).get(n - 1 - i, 0) for i in range(n)], 0))


@SEEDED
@given(dense=st.lists(_ENTRY, min_size=1, max_size=60),
       sparse=_sparse_long(200))
def test_products_of_sparse_long_rows(dense, sparse):
    """``_convolve`` runs its outer loop on the sparser row: the product
    is sympy's in both operand orders, over Z[x] and mod p."""
    dense = dmp_strip(dense, 0)
    K, F = _INT_ROWS[0], GF(3).kernel
    for a, b in ((dense, sparse), (sparse, dense),
                 (sparse, dmp_strip(sparse[::-1], 0))):
        assert K.mul(a, b) == dmp_mul(a, b, 0, ZZ), (a, b)
        a, b = (dmp_strip([x % 3 for x in r], 0) for r in (a, b))
        assert F.mul(a, b) == dmp_strip(
            [x % 3 for x in dmp_mul(a, b, 0, ZZ)], 0), (a, b)


def _fq_rows(k):
    """Rows of F_q[t] (``k.kernel``) from drawn coefficients."""
    ring = PolyRing(k, "t")
    return st.lists(st.integers(0, k.order - 1), max_size=4).map(
        lambda cs: k.kernel.rows(ring.poly(map(k.element_at, cs)).coeffs)[0])


def _kernel(name):
    """(ring, kernel, strategy of its rows) for one kernel by name."""
    if name == "Z[x]":
        return PolyRing(QQ, "x"), _INT_ROWS[0], _ROW0
    if name == "Z[t][x]":
        return PolyRing(FunctionField(QQ, "t"), "x"), _INT_ROWS[1], _ROW1
    if name.endswith("[t]"):
        k = GF(int(name[2:-3]))
        return PolyRing(k, "t"), k.kernel, _fq_rows(k)
    k = GF(int(name[2:-6]))
    ring = PolyRing(FunctionField(k, "t"), "x")
    rows = st.lists(_fq_rows(k), max_size=4).map(
        lambda r: r[next((i for i, c in enumerate(r) if c), len(r)):])
    return ring, ring.kernel, rows


def _tower_reference(base, a, b, product):
    """a*b or a+b of F_q[t][x] rows, coefficient by x-degree on the base
    kernel's ``mul`` and ``add``."""
    coeffs = {}
    if product:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                k = len(a) + len(b) - 2 - i - j
                coeffs[k] = base.add(coeffs.get(k, []), base.mul(x, y))
    else:
        for row in (a, b):
            for i, x in enumerate(row):
                k = len(row) - 1 - i
                coeffs[k] = base.add(coeffs.get(k, []), x)
    out = [coeffs[k] for k in sorted(coeffs, reverse=True)]
    while out and not out[0]:
        del out[0]
    return out


@pytest.mark.parametrize("q", [3, 9])
@SEEDED
@given(data=st.data())
def test_tower_sum_and_product_over_fq(q, data):
    _, K, rows = _kernel(f"F_{q}[t][x]")
    a, b = data.draw(rows), data.draw(rows)
    assert K.zero == []
    assert K.mul(a, b) == _tower_reference(K.base, a, b, True), (a, b)
    assert K.add(a, b) == _tower_reference(K.base, a, b, False), (a, b)
    assert K.add(a, K.neg(a)) == K.zero


@pytest.mark.parametrize("q", [9, 25])
@SEEDED
@given(data=st.data())
def test_fq_divmod_against_poly_long_division(q, data):
    """``_FqRows.divmod`` for k > 1, in place on the reversed row, against
    ``Poly.__divmod__``, the generic long division over F_q."""
    k = GF(q)
    ring, K = PolyRing(k, "t"), k.kernel
    coeffs = st.integers(0, q - 1).map(k.element_at)
    a = ring.poly(data.draw(st.lists(coeffs, max_size=14)))
    b = ring.poly(data.draw(st.lists(coeffs, min_size=1, max_size=5)
                            .filter(lambda cs: any(cs))))
    quo, rem = divmod(a, b)
    rows = K.divmod(K.rows(a.coeffs)[0], K.rows(b.coeffs)[0])
    assert rows == (K.rows(quo.coeffs)[0], K.rows(rem.coeffs)[0]), (a, b)


@pytest.mark.parametrize("name", ["Z[x]", "Z[t][x]", "F_3[t]", "F_9[t]",
                                  "F_3[t][x]"])
@SEEDED
@given(data=st.data())
def test_derivative_against_poly_derivative(name, data):
    """The kernel's ``derivative`` against ``Poly.derivative``, which
    multiplies the coefficient of each degree k by k."""
    ring, K, rows = _kernel(name)
    a = data.draw(rows)
    reference = K.to_poly(ring, a, K.one).derivative()
    assert K.derivative(a) == K.rows(reference.coeffs)[0], a


@pytest.mark.parametrize("name", ["F_3[t]", "F_9[t]", "F_27[t]",
                                  "F_3[t][x]"])
@SEEDED
@given(data=st.data())
def test_pth_root_of_a_pth_power(name, data):
    """``pth_root(a^p)`` is a up to a unit: a itself over F_q[t], and a up
    to its content over F_q[t][x]."""
    ring, K, rows = _kernel(name)
    a = data.draw(rows)
    root = K.pth_root(K.pow(a, K.p))
    if a == K.zero:
        assert root == K.zero
    else:
        assert (K.to_poly(ring, root, K.lead(root))
                == K.to_poly(ring, a, K.lead(a))), a


def test_pth_root_divides_out_the_content():
    K = _kernel("F_3[t][x]")[1]
    # t*x^3 + t^4 = t * (x + t)^3
    assert K.pth_root([[1, 0], [], [], [1, 0, 0, 0, 0]]) == [[1], [1, 0]]


def test_inseparable_row_is_rejected():
    K = _kernel("F_3[t][x]")[1]
    # x^3 - t: zero derivative in x, and t is not a cube in F_3(t)
    with pytest.raises(UnsupportedField, match="inseparable"):
        K.pth_root([[1], [], [], [2, 0]])


def test_level_0_exact_division_checks_its_remainder():
    # 3 by 2 in Z[x]; t^2 + 1 by t + 1 over F_5, remainder 2
    with pytest.raises(InvariantViolated, match="does not divide"):
        _INT_ROWS[0].exquo([3], [2])
    with pytest.raises(InvariantViolated, match="does not divide"):
        GF(5).kernel.exquo([1, 0, 1], [1, 1])
    assert _INT_ROWS[0].exquo([4, -6], [2]) == [2, -3]
    assert GF(5).kernel.exquo([1, 0, 4], [1, 1]) == [1, 4]
