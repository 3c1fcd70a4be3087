"""The row kernels against independent routes, on seeded hypothesis draws.

The characteristic-0 kernels (``_INT_ROWS``: Z[x] at u = 0, Z[t][x] at
u = 1) run sums, products and, with a constant row, exact divisions, gcds
and cofactors on plain ints.  Every result must equal sympy's dense
routine at the same u, entry for entry, since ``RatFunc.rows``, hashes and
printed output are built from them.  The level-1 sum and product shared by
Z[t][x] and F_q[t][x] (``_Rows``) are checked over F_3 and F_9 against a
degree-by-degree reference on the ``_FqRows`` base kernel.  The steps of
the squarefree decomposition that run on rows, ``derivative`` in every
kernel and ``pth_root`` in characteristic p, are checked against
``Poly.derivative`` and against p-th powers.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.densearith import (dmp_add, dmp_exquo, dmp_mul,  # noqa: E402
                                    dmp_neg)
from sympy.polys.densebasic import (dmp_ground_LC, dmp_strip,  # noqa: E402
                                    dmp_zero_p)
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.euclidtools import dmp_inner_gcd  # noqa: E402

from conicval.errors import UnsupportedField  # noqa: E402
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
