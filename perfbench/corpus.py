"""The command corpus of the decide_mix workload, with the benchmark's own
routes to the expected answers.

Every entry is a CLI argument list and the answer fields the benchmark
expects in its JSON result.  The answers are computed here by routes that
do not go through the code under test: p-adic orders, Euler's criterion on
the normalised residues, local Hilbert symbols with the product formula for
the place 2, the tame symbol and reciprocity over F_q(t), and the values of
Gauss extensions and of w* on monomials read off from their definitions.

Regenerate the committed files (and the tower_fuzz stream pool, see
``build_tower_pool``) with

    python3 perfbench/corpus.py

which also runs every entry through the program and prints the entries on
which the program and the expected answer disagree (``seed_pass`` false),
and cross-checks the entries against ``oracle.isotropy_search`` and
``oracle.hensel_count``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Fixed so that the committed corpus never changes with the run seed; the
# run seed only chooses which entries a run draws.
CORPUS_SEED = 20191001

# the named tail cases of decide_mix
TAIL_ANALYZE = ["analyze", "--val", "Q:p=100003", "--a", "2", "--b", "3"]
SEMIPRIME_30 = (100000000000031, 3000000000000041)


# ---------------------------------------------------------------------------
# arithmetic of the expected-answer routes
# ---------------------------------------------------------------------------


def trial_factor(n: int) -> dict:
    """Prime factorisation of |n| by trial division (small n only)."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order(x: Fraction, p: int) -> int:
    """p-adic order of a nonzero rational."""
    m = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        m += 1
    while den % p == 0:
        den //= p
        m -= 1
    return m


def unit_residue(x: Fraction, p: int) -> int:
    """x / p^order(x) modulo p."""
    u = x / Fraction(p) ** order(x, p)
    return u.numerator * pow(u.denominator, -1, p) % p


def euler(n: int, p: int) -> int:
    """Legendre symbol of a unit n modulo the odd prime p by Euler's criterion."""
    r = pow(n % p, (p - 1) // 2, p)
    if r not in (1, p - 1):
        raise ValueError(f"{n} is not a unit modulo {p}")
    return 1 if r == 1 else -1


def local_symbol(a: Fraction, b: Fraction, p: int) -> int:
    """Hilbert symbol at an odd prime by the tame-symbol formula."""
    al, be = order(a, p), order(b, p)
    s = euler(-1, p) ** (al * be % 2)
    if be % 2:
        s *= euler(unit_residue(a, p), p)
    if al % 2:
        s *= euler(unit_residue(b, p), p)
    return s


def support(a: Fraction, b: Fraction, known: dict | None = None) -> list:
    """Odd primes dividing a numerator or denominator of a or b.  Numbers too
    large for trial division must be given with their factors in ``known``."""
    primes = set()
    for x in (a, b):
        for n in (x.numerator, x.denominator):
            facs = known[abs(n)] if known and abs(n) in known else trial_factor(n)
            primes.update(q for q in facs if q != 2)
    return sorted(primes)


def hilbert(a: Fraction, b: Fraction, place, known: dict | None = None) -> int:
    """Hilbert symbol over Q; the symbol at 2 comes from the product formula."""
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    if place != 2:
        return local_symbol(a, b, place)
    prod = hilbert(a, b, "inf")
    for p in support(a, b, known):
        prod *= local_symbol(a, b, p)
    return prod


def q_split(a: Fraction, b: Fraction, known: dict | None = None) -> bool:
    """(a, b) splits over Q iff every local symbol is +1; by the product
    formula it suffices to look at infinity and the odd primes."""
    return hilbert(a, b, "inf") == 1 and all(
        local_symbol(a, b, p) == 1 for p in support(a, b, known))


def is_rational_square(x: Fraction) -> bool:
    return x > 0 and all(math.isqrt(n) ** 2 == n
                         for n in (x.numerator, x.denominator))


def case_tag(va: int, vb: int) -> str:
    if va % 2 == 0 and vb % 2 == 0:
        return "case3_units"
    if va % 2 == 0:
        return "case2_a"
    if vb % 2 == 0:
        return "case2_b"
    return "case2_ab"


def normalized_b_residue(va, vb, ua, ub):
    """Shape and residue class of b after the moves of normalize: square
    scalings, swapping a and b, and b -> -ab.  ``ua``/``ub`` are the unit
    parts; the caller's ring supplies their arithmetic."""
    pa, pb = va % 2, vb % 2
    if (pa, pb) == (0, 0):
        return "unit_unit", None
    if (pa, pb) == (1, 0):
        return "odd_unit", ub
    if (pa, pb) == (0, 1):
        return "odd_unit", ua
    return "odd_unit", -ua * ub


def verdict_kind(shape, residue_division, bbar_square, global_split):
    """The decision of decide_unramified_extension from its ingredients."""
    if shape == "unit_unit":
        if residue_division:
            return "unramified_extension"
    elif not bbar_square:
        return "ramified_only"
    return ("no_extension_algebra_split" if global_split
            else "no_extension_split_residue")


def decide_qp(p: int, a: Fraction, b: Fraction, known=None) -> str:
    va, vb = order(a, p), order(b, p)
    shape, bbar = normalized_b_residue(va, vb, unit_residue(a, p),
                                       unit_residue(b, p))
    square = shape == "odd_unit" and euler(bbar, p) == 1
    # residue algebras over a finite field always split
    return verdict_kind(shape, False, square, q_split(a, b, known))


def decide_qt(c1: Fraction, va: int, c2: Fraction, vb: int) -> str:
    """a = c1*pi^va, b = c2*pi^vb at a degree-1 place or infinity of Q(t).
    Over Q(t) the program consults only the certificates a, b or -ab being a
    square, and reports the split-residue verdict otherwise."""
    shape, bbar = normalized_b_residue(va, vb, c1, c2)
    division = shape == "unit_unit" and not q_split(c1, c2)
    square = shape == "odd_unit" and is_rational_square(bbar)
    glob = ((va % 2 == 0 and is_rational_square(c1))
            or (vb % 2 == 0 and is_rational_square(c2))
            or ((va + vb) % 2 == 0 and is_rational_square(-c1 * c2)))
    return verdict_kind(shape, division, square, glob)


def decide_fqt(q: int, deg: int, c1: int, va: int, c2: int, vb: int) -> str:
    """a = c1*pi^va, b = c2*pi^vb over F_q(t), c1, c2 in the prime field.

    A prime-field constant is a square in the residue field F_(q^deg) iff it
    is a square mod p or that field has even degree over F_p.  The algebra is
    ramified at most at pi and infinity, so by reciprocity it splits iff the
    tame symbol at pi is trivial."""
    p = _prime_of(q)
    even = (round(math.log(q, p)) * deg) % 2 == 0

    def chi(c):
        return 1 if even else euler(c, p)

    shape, bbar = normalized_b_residue(va, vb, c1, c2)
    square = shape == "odd_unit" and chi(bbar) == 1
    symbol = chi(-1) ** (va * vb % 2) * chi(c1) ** (vb % 2) * chi(c2) ** (va % 2)
    return verdict_kind(shape, False, square, symbol == 1)


def _prime_of(q: int) -> int:
    return min(trial_factor(q))


def wstar_monomial_value(vc, n, vd, m, va, vb):
    """w*(c*x^n + d*x^m*s) from w*(x) = (v(b)-v(a))/2 and w*(s) = v(b)/2;
    the two terms lie in different basis directions, so w* is the minimum."""
    wx = Fraction(vb - va, 2)
    vals = []
    if vc is not None:
        vals.append(vc + n * wx)
    if vd is not None:
        vals.append(vd + m * wx + Fraction(vb, 2))
    return min(vals)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _opt(flag: str, value: str) -> str:
    """--flag=value, which argparse accepts for negative values too."""
    return f"{flag}={value}"


def _log_primes(count, lo_exp, hi_exp, last):
    import sympy
    out = []
    for i in range(count - 1):
        e = lo_exp + (hi_exp - lo_exp) * i / (count - 1)
        p = int(sympy.nextprime(int(10 ** e)))
        if p not in out and p != last:
            out.append(p)
    out.append(last)
    return out


UNITS = [1, -1, 2, -2, 3, -3, 5, 6, -7, 10, 11, -13]


def _unit(rng, p):
    while True:
        u = Fraction(rng.choice(UNITS), rng.choice([1, 1, 1, 7, 3]))
        if u.numerator % p and u.denominator % p:
            return u


def qp_entries(rng):
    """analyze and quat decide over Q:p, p log-spread from 3 to 1e5, one
    entry per parity class of (v(a), v(b)) so every w* case occurs."""
    out = []
    for p in _log_primes(24, 0.48, 5.0, 100003):
        for klass, (pa, pb) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            for command in ("analyze", "quat-decide"):
                va = rng.choice([0, 2] if pa == 0 else [1, -1])
                vb = rng.choice([0, 2, -2] if pb == 0 else [1, 3])
                a = _unit(rng, p) * Fraction(p) ** va
                b = _unit(rng, p) * Fraction(p) ** vb
                kind = decide_qp(p, a, b)
                args = ["analyze" if command == "analyze" else "quat",
                        *([] if command == "analyze" else ["decide"]),
                        "--val", f"Q:p={p}", _opt("--a", _frac(a)),
                        _opt("--b", _frac(b))]
                expect = {"kind": kind}
                if command == "analyze":
                    fam = rng.randint(1, 3)
                    args += ["--family", str(fam)]
                    expect.update(analyze_expect(kind, va, vb, fam))
                out.append(_entry(f"qp_{command}", args, expect,
                                  "Euler criterion on normalised residues; "
                                  "local Hilbert symbols"))
    return out


def analyze_expect(kind, va, vb, family):
    present = kind == "unramified_extension"
    return {"verdict": "PRESENT" if present else "ABSENT",
            "case": case_tag(va, vb),
            "family_count": None if present else family}


def hilbert_entries(rng):
    out = []
    for _ in range(120):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 4),
                     rng.randint(1, 300))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 4),
                     rng.randint(1, 300))
        odd = support(a, b)
        place = rng.choice(["inf", 2] + odd[:3] + [rng.choice([3, 5, 7, 11, 13])])
        out.append(_entry("hilbert", ["hilbert", _opt("--a", _frac(a)),
                                      _opt("--b", _frac(b)),
                                      "--place", str(place)],
                          {"symbol": hilbert(a, b, place)},
                          "Euler criterion; product formula at 2"))
    return out


def _composites(rng):
    """Composite numerators of 20 to 34 digits with known factors."""
    import sympy
    out = [SEMIPRIME_30]
    for digits in (20, 24, 28, 34):
        k = digits // 2
        p1 = int(sympy.nextprime(rng.randrange(10 ** (k - 1), 10 ** k)))
        p2 = int(sympy.nextprime(rng.randrange(10 ** (digits - k - 1),
                                               10 ** (digits - k))))
        out.append((p1, p2))
    for digits in (26,):
        small = int(sympy.nextprime(rng.randrange(10 ** 5, 10 ** 6)))
        big = int(sympy.nextprime(rng.randrange(10 ** (digits - 7),
                                                10 ** (digits - 6))))
        out.append((small, big))
    return out


def split_entries(rng):
    out = []
    for _ in range(60):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 9))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 9))
        out.append(_entry("q_split", ["quat", "split", "--field", "Q",
                                      _opt("--a", _frac(a)), _opt("--b", _frac(b))],
                          {"split": q_split(a, b)}, "local Hilbert symbols"))
    for p1, p2 in _composites(rng):
        n = p1 * p2
        known = {n: {p1: 1, p2: 1}}
        for b in (Fraction(rng.choice([3, 5, 7, -1, -3, 11])),):
            a = Fraction(n)
            name = None
            if (p1, p2) == SEMIPRIME_30:
                b = Fraction(7)
                name = "quat_split_semiprime30"
            out.append(_entry("q_split_big", ["quat", "split", "--field", "Q",
                                              _opt("--a", _frac(a)),
                                              _opt("--b", _frac(b))],
                              {"split": q_split(a, b, known)},
                              "local Hilbert symbols from the known factors",
                              name=name))
    for q in (3, 5, 7, 9, 25):
        for _ in range(8):
            a, b = rng.randint(1, 30), rng.randint(1, 30)
            if a % _prime_of(q) and b % _prime_of(q):
                out.append(_entry("gf_split", ["quat", "split", "--field",
                                               f"GF({q})", "--a", str(a),
                                               "--b", str(b)],
                                  {"split": True},
                                  "conics over finite fields have points"))
    return out


QT_PLACES = ["t", "t-1", "t+2", "t-3", "inf"]


def _qt_power(place, k):
    """pi^k at a place of Q(t) as an expression; pi = 1/t at infinity."""
    if k == 0:
        return "1"
    if place == "inf":
        return f"t^{-k}"
    return f"({place})^{k}"


def _qt_elem(c: Fraction, place, k):
    return f"{_frac(c)}*{_qt_power(place, k)}" if k else _frac(c)


def qt_entries(rng):
    """analyze, quat decide and family over Q(t) at degree-1 places and inf.
    The constant pairs include (-1, -1) and (-1, -3), whose residue algebras
    are division, so every verdict kind occurs."""
    out = []
    consts = [Fraction(c) for c in (-1, -3, 2, 3, -2, 5, 1, 4, -6, 7)]
    for _ in range(96):
        place = rng.choice(QT_PLACES)
        c1, c2 = rng.choice(consts), rng.choice(consts)
        va, vb = rng.choice([0, 0, 1, 2, -1]), rng.choice([0, 0, 1, 2, -1])
        kind = decide_qt(c1, va, c2, vb)
        command = rng.choice(["analyze", "quat-decide", "family"])
        if command == "family" and kind == "unramified_extension":
            command = "analyze"
        val = f"Q(t):place={place}"
        ab = [_opt("--a", _qt_elem(c1, place, va)),
              _opt("--b", _qt_elem(c2, place, vb))]
        out.append(_cli_entry("qt", command, val, ab, kind, va, vb, rng,
                              "Hilbert symbols of the residue algebra; "
                              "squares in Q(t)"))
    return out


def _cli_entry(stratum, command, val, ab, kind, va, vb, rng, route):
    if command == "analyze":
        fam = rng.randint(1, 3)
        args = ["analyze", "--val", val, *ab, "--family", str(fam)]
        expect = {"kind": kind, **analyze_expect(kind, va, vb, fam)}
    elif command == "quat-decide":
        args = ["quat", "decide", "--val", val, *ab]
        expect = {"kind": kind}
    else:
        count = rng.randint(1, 4)
        args = ["family", "--val", val, *ab, "--count", str(count)]
        expect = {"count": count}
    return _entry(stratum, args, expect, route)


def _int_poly(coeffs, var="t"):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if not mono:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms)


def fq_places(rng, q, deg, count):
    """Monic places of F_q[t] of the given degree with prime-field
    coefficients, so that the valuation descriptor can name them."""
    from conicval.fields import GF, PolyRing, is_irreducible
    ring = PolyRing(GF(q), "t")
    p = _prime_of(q)
    seen, out = set(), []
    for _ in range(400):
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        if deg > 1 and not coeffs[0]:
            continue
        key = tuple(coeffs)
        if key in seen:
            continue
        seen.add(key)
        if is_irreducible(ring.poly([ring.field.from_int(c) for c in coeffs])):
            out.append(_int_poly(coeffs))
            if len(out) == count:
                break
    return out


def _fq_elem(c, place, k):
    if k == 0:
        return str(c)
    if place == "inf":
        return f"{c}*t^{-k}"
    return f"{c}*({place})^{k}"


def fqt_entries(rng):
    out = []
    for q in (3, 5, 7, 9, 25):
        p = _prime_of(q)
        for deg in (1, 2, 3, 4):
            places = fq_places(rng, q, deg, 2)
            if deg == 1:
                places.append("inf")
            for place in places:
                for _ in range(3):
                    c1, c2 = rng.randrange(1, p), rng.randrange(1, p)
                    va = rng.choice([0, 1, 2, -1])
                    vb = rng.choice([0, 1, 2, -1])
                    d = 1 if place == "inf" else deg
                    kind = decide_fqt(q, d, c1, va, c2, vb)
                    command = rng.choice(["analyze", "quat-decide", "family"])
                    val = f"Fq(t):q={q},place={place}"
                    ab = [_opt("--a", _fq_elem(c1, place, va)),
                          _opt("--b", _fq_elem(c2, place, vb))]
                    out.append(_cli_entry(
                        "fqt", command, val, ab, kind, va, vb, rng,
                        "Euler criterion in the residue field; tame symbol "
                        "and reciprocity"))
    return out


def _valuation_context(rng):
    """(descriptor, uniformizer-power writer, unit constants) for a base."""
    kind = rng.choice(["qp", "qt", "fqt"])
    if kind == "qp":
        p = rng.choice([3, 5, 7, 11, 101])
        units = [u for u in (1, -1, 2, 3, -6, 7, 10) if u % p]
        return (f"Q:p={p}", lambda c, k: _frac(Fraction(c) * Fraction(p) ** k),
                units)
    if kind == "qt":
        place = rng.choice(QT_PLACES)
        return (f"Q(t):place={place}",
                lambda c, k: _qt_elem(Fraction(c), place, k),
                [1, -1, 2, 3, -5])
    q = rng.choice([3, 5, 7])
    place = rng.choice(["t", "t+1", "inf"] + (["t^2+1"] if q == 3 else []))
    return (f"Fq(t):q={q},place={place}",
            lambda c, k: _fq_elem(c, place, k), list(range(1, q)))


def gauss_entries(rng):
    """Gauss extensions with identity and non-identity pivots; the element
    is a polynomial in the pivot, whose value is the least v of its
    coefficients by definition."""
    out = [_entry("gauss", ["gauss", "--val", "Q(t):place=t", "--pivot", "t*x",
                            "--eval", "t"], {"value": "1"},
                  "definition of the Gauss value", name="gauss_pivot_tx_eval_t")]
    for _ in range(70):
        val, power, units = _valuation_context(rng)
        lam_k = rng.choice([0, 0, 1, -1])
        lam = power(rng.choice(units), lam_k)
        candidate = power(rng.choice(units), rng.choice([0, 1]))
        shift = rng.choice([None, None, candidate])
        pivot = "x" if rng.random() < 0.3 else (
            f"({lam})*x" + (f"+({shift})" if shift else ""))
        terms, vals = [], []
        for i in range(3):
            if rng.random() < 0.6 or (i == 2 and not terms):
                k = rng.choice([0, 1, 2, -1])
                c = power(rng.choice(units), k)
                terms.append(f"({c})" + ("" if i == 0 else f"*({pivot})^{i}"))
                vals.append(k)
        out.append(_entry("gauss", ["gauss", "--val", val, "--pivot", pivot,
                                    _opt("--eval", "+".join(terms))],
                          {"value": str(min(vals))},
                          "definition of the Gauss value"))
    return out


def eval_entries(rng):
    """w* of c*x^n + d*x^m*s on the three verify fixtures and further bases."""
    out = []
    fixtures = [("Q(t):place=t", "-1", "-1", 0, 0),
                ("Q(t):place=t", "t", "1", 1, 0),
                ("Q:p=5", "2", "3", 0, 0)]
    out.append(_entry("eval", ["eval", "--val", "Q(t):place=t", "--a", "t",
                               "--b", "1", "--f", "t", "--g", "0"],
                      {"value": "1"}, "w*(t) = v(t)", name="eval_wstar_t"))
    out.append(_entry("eval", ["eval", "--val", "Q:p=5", "--a", "2", "--b", "3",
                               "--f", "x", "--g", "1"],
                      {"value": str(wstar_monomial_value(0, 1, 0, 0, 0, 0))},
                      "w* on monomials", name="eval_qp5_x_plus_s"))
    for _ in range(60):
        if rng.random() < 0.5:
            val, a, b, va, vb = rng.choice(fixtures)
            if val == "Q:p=5":
                def power(c, k):
                    return _frac(Fraction(c) * Fraction(5) ** k)
            else:
                def power(c, k):
                    return _qt_elem(Fraction(c), "t", k)
            units = [1, -1, 2, 3]
        else:
            val, power, units = _valuation_context(rng)
            va, vb = rng.choice([0, 1, 2, -1]), rng.choice([0, 1, 2, -1])
            a = power(rng.choice(units), va)
            b = power(rng.choice(units), vb)
        terms = {}
        while not terms:
            for part in ("f", "g"):
                if rng.random() < 0.7:
                    terms[part] = (rng.choice([0, 1, -1, 2]), rng.randint(0, 3))
        f = g = "0"
        vc = vd = None
        n = m = 0
        if "f" in terms:
            vc, n = terms["f"]
            f = f"({power(rng.choice(units), vc)})*x^{n}"
        if "g" in terms:
            vd, m = terms["g"]
            g = f"({power(rng.choice(units), vd)})*x^{m}"
        value = wstar_monomial_value(vc, n, vd, m, va, vb)
        out.append(_entry("eval", ["eval", "--val", val, _opt("--a", a),
                                   _opt("--b", b), _opt("--f", f), _opt("--g", g)],
                          {"value": str(value)}, "w* on monomials"))
    return out


def _entry(stratum, args, expect, route, name=None):
    e = {"stratum": stratum, "args": args, "expect": expect, "route": route}
    if name:
        e["name"] = name
    return e


def _mark_pivot(entry):
    """Mark gauss and eval entries by whether the Gauss pivot they use is
    the identity, so every run draws as many of each.  w* uses the pivot
    (a/b)*z, which is the identity only when a == b."""
    from workloads import _arg
    args = entry["args"]
    if args[0] == "gauss":
        other = _arg(args, "--pivot") != "x"
    else:
        other = _arg(args, "--a") != _arg(args, "--b")
    entry["pivot"] = "other" if other else "identity"
    return entry


def build_corpus():
    rng = random.Random(CORPUS_SEED)
    entries = [_entry("qp_analyze", TAIL_ANALYZE,
                      {"kind": decide_qp(100003, Fraction(2), Fraction(3)),
                       **analyze_expect(decide_qp(100003, Fraction(2),
                                                  Fraction(3)), 0, 0, 3)},
                      "Euler criterion on normalised residues; local Hilbert "
                      "symbols", name="analyze_qp100003")]
    for make in (qp_entries, hilbert_entries, split_entries, qt_entries,
                 fqt_entries):
        entries.extend(make(rng))
    for make in (gauss_entries, eval_entries):
        entries.extend(_mark_pivot(e) for e in make(rng))
    for i, e in enumerate(entries):
        e["id"] = i
    return entries


# ---------------------------------------------------------------------------
# regeneration with cross-checks against the program and the oracles
# ---------------------------------------------------------------------------


def _cross_check(entry, result):
    """Oracle cross-checks of an entry that do not use its expected answer's
    route; returns a list of problems."""
    from conicval.cli import parse_valuation
    from conicval.oracle import hensel_count, isotropy_search
    problems = []
    args = entry["args"]
    if entry["stratum"].startswith("qp_") and result is not None:
        v = parse_valuation(args[args.index("--val") + 1])
        norm = (result.get("decision") or result)
        if norm.get("shape") == "odd_unit":
            b = Fraction(norm["normalized"][1])
            square = hensel_count(v, b, 6) == 2
            if square != (entry["expect"]["kind"] != "ramified_only"):
                problems.append("hensel_count disagrees on the residue square")
    if entry["stratum"] == "qt" and result is not None:
        norm = result.get("decision") or result
        if norm.get("shape") == "unit_unit" and norm.get("residue_algebra"):
            abar, bbar = (Fraction(x) for x in norm["residue_algebra"])
            point = isotropy_search(abar, bbar, 60)
            division = entry["expect"]["kind"] == "unramified_extension"
            if division and point is not None:
                problems.append("isotropy_search found a point of a division "
                                "residue algebra")
            if not division and point is None:
                problems.append("no small point of a split residue conic")
    return problems


TOWER_POOL_STREAMS = 60


def _timed(fn, runs=2):
    """(least time of ``runs`` calls, first result) of fn(), each call from
    empty sympy caches; an exception is the result."""
    import time
    import workloads as wl
    best, first = None, None
    for i in range(runs):
        wl.fresh_library_state()
        t0 = time.perf_counter()
        try:
            result = fn()
        except (Exception, SystemExit) as exc:   # the seed program crashes
            result = exc
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        if i == 0:
            first = result
    return round(best, 4), first


def build_tower_pool():
    """Stream seeds of the seeded tower_fuzz sources, each with its op's
    time here, whether the op passed, and the k and cseed of its constant c,
    which are the cells the op lists are drawn by; under "seed_failing",
    the fixed pairs of ``seed_failing_pairs``."""
    import workloads as wl
    rng = random.Random(CORPUS_SEED)
    pool = {}
    for source in [key for key, _, _ in wl.GAUSS_SOURCES] + ["wstar_qp5"]:
        items = []
        for i in range(TOWER_POOL_STREAMS):
            stream = rng.getrandbits(32)
            op = {"kind": "tower", "source": source, "stream": stream,
                  "pair": 0, "k": i % 5 - 2, "cseed": rng.getrandbits(32)}
            states = {(source, stream, 0): random.Random(stream).getstate()}
            seconds, result = _timed(lambda: wl.run_tower_op(op, states))
            items.append([stream, seconds,
                          isinstance(result, tuple) and result[0],
                          op["k"], op["cseed"]])
        pool[source] = items
    pool["seed_failing"] = seed_failing_pairs()
    return pool


# A fixed tower pair still running after this many seconds is cut off.
FIXED_PAIR_BUDGET_S = 10.0


def seed_failing_pairs():
    """{source: [pair, ...]}: the fixed tower_fuzz pairs (the named ones and
    the core ones) that fail here.  A pair fails if the restriction
    w(c) == v(c) fails for its constant, or if its whole op fails within
    FIXED_PAIR_BUDGET_S; a pair cut off with a valid restriction is not
    listed."""
    import run as bench
    import workloads as wl
    ops = wl.fixed_tower_ops({})
    states = wl.stream_states(ops)
    guard = bench.Budget()
    failing = {}
    for op in sorted(ops, key=lambda op: (op["source"], op["pair"])):
        ok, why = wl.run_tower_op(op, states, axioms=False)
        if ok:
            wl.fresh_library_state()
            result, cut = guard.call(lambda: wl.run_tower_op(op, states),
                                     FIXED_PAIR_BUDGET_S)
            ok, why = (True, "cut off") if cut else result
        print("FIXED", op["source"], op["pair"], "passes" if ok else "fails",
              why)
        if not ok:
            failing.setdefault(op["source"], []).append(op["pair"])
    return failing


def regenerate():
    import contextlib
    import io
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads as wl
    from conicval import cli

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(args + ["--json"])
        return json.loads(buf.getvalue())

    entries = build_corpus()
    disagreements = 0
    for e in entries:
        e["seed_seconds"], out = _timed(lambda: run(e["args"]))
        if isinstance(out, BaseException):
            ok, why = False, f"{type(out).__name__}: {out}"
            out = {}
        else:
            ok, why = wl.check_cli_output(e, out, wl.cli_validator())
        e["seed_pass"] = ok
        problems = _cross_check(e, out.get("result"))
        if problems:
            print("CROSS-CHECK", e["id"], e["args"], problems)
        if not ok:
            disagreements += 1
            print("DISAGREE", e["id"], " ".join(e["args"]), "::", why)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"corpus_seed": CORPUS_SEED, "entries": entries}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} entries, {disagreements} where the program "
          f"disagrees; wrote {EXPECTED_PATH}")
    with open(wl.TOWER_POOL_PATH, "w") as fh:
        json.dump(build_tower_pool(), fh, indent=0)
        fh.write("\n")
    print(f"wrote {wl.TOWER_POOL_PATH}")


if __name__ == "__main__":
    regenerate()
