"""Op lists of the two workloads, the ops themselves, and their checks.

Every op starts from descriptor strings, as a user's call does, so no
program object (and no finite-field square-root table) is shared between
ops.  An op's run gives an output that its check turns into (passed,
reason); raising counts as failing.

Every op carries ``seed_pass``: whether it passed at the seed commit.  The
seed program has known defects (a Gauss extension whose pivot is not the
identity mishandles elements with a constant numerator or denominator), and
the ops they break count as failed, but only a failure of an op that passed
at the seed commit makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("tower_fuzz", "decide_mix")
# Per-op time budgets in seconds, enforced by the runner.  On tower_fuzz
# every drawn op and every core w* pair ends within the budget at the seed
# commit (the slowest in about 1.1 s), so only named tail pairs are cut off.
BUDGET_S = {"tower_fuzz": 2.0, "decide_mix": 3.0}
# Passes over the op list; an op's latency is its fastest attempt.
PASSES = {"tower_fuzz": 5, "decide_mix": 5}

# ---------------------------------------------------------------------------
# tower_fuzz
# ---------------------------------------------------------------------------

# (key, valuation, pivot): Gauss extensions, as in ``verify --suite gauss``
GAUSS_SOURCES = [
    ("gauss_qt_t", "Q(t):place=t", "x"),
    ("gauss_qt_t-2", "Q(t):place=t-2", "x"),
    ("gauss_qt_inf", "Q(t):place=inf", "x"),
    ("gauss_f3_t", "Fq(t):q=3,place=t", "x"),
    ("gauss_f3_t2+1", "Fq(t):q=3,place=t^2+1", "x"),
    ("gauss_f5_inf", "Fq(t):q=5,place=inf", "x"),
    # pivots other than the identity
    ("pivot_qt_tx", "Q(t):place=t", "t*x"),
    ("pivot_qt_t-2", "Q(t):place=t-2", "(t-2)*x+1"),
    ("pivot_qt_inf", "Q(t):place=inf", "x/t+3"),
    ("pivot_f3_tx+1", "Fq(t):q=3,place=t", "t*x+1"),
    ("pivot_f3_t2+1", "Fq(t):q=3,place=t^2+1", "(t^2+1)*x"),
    ("pivot_f5_inf", "Fq(t):q=5,place=inf", "2*x+t"),
]
# (key, valuation, a, b): the w* fixtures of ``verify --suite wstar``
WSTAR_SOURCES = [
    ("wstar_mm", "Q(t):place=t", "-1", "-1"),
    ("wstar_t1", "Q(t):place=t", "t", "1"),
    ("wstar_qp5", "Q:p=5", "2", "3"),
]
# Pairs of the seed-0 w* fuzz stream: pair 36 of a=t, b=1 breaks
# multiplicativity, and each other named pair took more than 5 s uncapped.
TOWER_TAIL = [("wstar_mm", 20), ("wstar_mm", 22), ("wstar_mm", 30),
              ("wstar_t1", 20), ("wstar_t1", 22), ("wstar_t1", 30),
              ("wstar_t1", 31), ("wstar_t1", 36)]
# The first pairs of the same streams run in every op list.  Their costs are
# heavy-tailed (10 ms to over a second), so drawing them per seed would make
# the run time depend on the seed more than on the program.
WSTAR_CORE_PAIRS = 5


def _tower_counts(seconds):
    """Seeded op counts per source.  At 30 s a run takes about a minute on a
    2-core x86 machine at the seed commit, most of it in the fixed pairs."""
    scale = seconds / 40.0
    return {"gauss": max(1, round(10 * scale)),
            "pivot": max(1, round(6 * scale)),
            "qp5": max(1, round(6 * scale))}


def fixed_constant(source, pair):
    """(k, cseed) of the constant c = pi^k * u checked with a fixed pair:
    a function of the pair, so its outcome at the seed commit is known."""
    return pair % 5 - 2, random.Random(f"{source}:{pair}").getrandbits(32)


def fixed_tower_ops(seed_failing):
    """The named tail pairs and the core w* pairs, the same in every op
    list; ``seed_failing`` ({source: [pair, ...]}) gives those that fail at
    the seed commit."""
    ops = [{"source": key, "stream": 0, "pair": pair,
            "name": f"{key}_seed0_pair{pair}"} for key, pair in TOWER_TAIL]
    for key in ("wstar_mm", "wstar_t1"):
        for pair in range(WSTAR_CORE_PAIRS):
            ops.append({"source": key, "stream": 0, "pair": pair})
    for op in ops:
        op["k"], op["cseed"] = fixed_constant(op["source"], op["pair"])
        op["seed_pass"] = op["pair"] not in seed_failing.get(op["source"], ())
        op["kind"] = "tower"
    return ops


def tower_ops(seed, seconds):
    rng = random.Random(f"tower_fuzz:{seed}")
    counts = _tower_counts(seconds)
    pool = load_tower_pool()
    ops = fixed_tower_ops(pool["seed_failing"])
    for key, _, pivot in GAUSS_SOURCES + [("wstar_qp5", None, None)]:
        n = counts["gauss" if pivot == "x" else "pivot" if pivot else "qp5"]
        for stream, _, passed, k, cseed in stratified(
                rng, pool[key], n,
                lambda item: (item[2], cost_class(item[1]))):
            ops.append({"source": key, "stream": stream, "pair": 0, "k": k,
                        "cseed": cseed, "seed_pass": passed})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
        op["kind"] = "tower"
    return ops


TOWER_POOL_PATH = os.path.join(HERE, "tower_pool.json")


def load_tower_pool():
    """{source: [[stream seed, seconds and pass at the seed commit, k,
    cseed], ...], "seed_failing": {source: [pair, ...]}}, written by
    corpus.py; k and cseed give the constant c."""
    with open(TOWER_POOL_PATH) as fh:
        return json.load(fh)


def fresh_library_state():
    """Empty sympy's caches, which outlive a call: a factorisation or an
    expression one op computed must not make a later op cheaper than it is
    for a user's fresh process.  Then collect garbage, so that no op pays
    for the collection of another op's objects."""
    from sympy.core.cache import clear_cache
    from sympy.ntheory.factor_ import factor_cache
    clear_cache()
    factor_cache.clear()
    gc.collect()


def build_tower_target(source):
    """The valuation-like object of a source, built from its descriptors."""
    from conicval.cli import (field_variables, parse_field_element,
                              parse_valuation)
    from conicval.conic import ConicFunctionField, DistinguishedExtension
    from conicval.fields import FunctionField
    from conicval.gauss import GaussExtension
    from conicval.parser import parse_element
    for key, val, pivot in GAUSS_SOURCES:
        if key == source:
            v = parse_valuation(val)
            ef = FunctionField(v.base, "x")
            variables = dict(field_variables(v.base), x=ef.gen())
            return v, GaussExtension(v, ef.coerce(parse_element(pivot, ef,
                                                                variables)))
    for key, val, a, b in WSTAR_SOURCES:
        if key == source:
            v = parse_valuation(val)
            cf = ConicFunctionField(v.base, parse_field_element(a, v.base),
                                    parse_field_element(b, v.base))
            return v, DistinguishedExtension(v, cf)
    raise KeyError(source)


def stream_states(ops):
    """RNG state before each (source, stream, pair) draw, replaying the
    default sampler's stream as ``valuation_axiom_fuzz`` draws it."""
    from conicval.oracle import default_sampler
    wanted = {}
    for op in ops:
        if op["kind"] == "tower":
            key = (op["source"], op["stream"])
            wanted.setdefault(key, set()).add(op["pair"])
    states = {}
    for (source, stream), pairs in wanted.items():
        rng = random.Random(stream)
        last = max(pairs)
        if last:
            sampler = default_sampler(build_tower_target(source)[1])
        for k in range(last + 1):
            if k in pairs:
                states[(source, stream, k)] = rng.getstate()
            if k < last:
                sampler(rng)
                sampler(rng)
    return states


def run_tower_op(op, states, axioms=True):
    """Valuation axioms on one pair, and w(c) == v(c) for a constant c;
    returns (passed, reason)."""
    from conicval.oracle import default_sampler, sample_field_element
    from conicval.value import INFINITY
    v, w = build_tower_target(op["source"])
    rng = random.Random()
    rng.setstate(states[(op["source"], op["stream"], op["pair"])])
    sampler = default_sampler(w)
    x, y = sampler(rng), sampler(rng)
    crng = random.Random(op["cseed"])
    c = v.uniformizer ** op["k"] * sample_field_element(crng, v.base,
                                                        nonzero=True)
    if axioms and x and y:
        vx, vy = w.value_of(x), w.value_of(y)
        if w.value_of(x * y) != vx + vy:
            return False, "multiplicativity"
        s = x + y
        vs = w.value_of(s) if s else INFINITY
        if vs < min(vx, vy):
            return False, "ultrametric"
        if vx != vy and vs != min(vx, vy):
            return False, "ultrametric equality"
    embedded = (w.conic_field.element(c) if hasattr(w, "conic_field")
                else w.field.coerce(c))
    if w.value_of(embedded) != v.value_of(c):
        return False, f"restriction w({c}) != v({c})"
    return True, ""


# ---------------------------------------------------------------------------
# decide_mix
# ---------------------------------------------------------------------------

EXPECTED_PATH = os.path.join(HERE, "expected.json")
SCHEMA_PATH = os.path.join(SRC, "conicval", "schema", "cli_output.schema.json")

# Draws per stratum for a 30 s run of decide_mix.
DECIDE_DRAWS = {"qp_analyze": 13, "qp_quat-decide": 13, "hilbert": 18,
                "q_split": 13, "q_split_big": 5, "gf_split": 9, "qt": 11,
                "fqt": 18, "gauss": 16, "eval": 16}


def load_corpus():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["entries"]


# ops of 64 ms and more at the seed commit
FIXED_CLASS = 12


def cost_class(seconds):
    """Half binary orders of magnitude of an op's cost at the seed commit,
    from 1 ms up."""
    return max(0, int(2 * math.log2(max(seconds, 1e-3) / 1e-3)))


def stratified(rng, pool, n, key):
    """n items of the pool: each cell of ``key`` gets its share of n by
    largest remainder, drawn at random inside the cell.  The shares depend
    only on n and the pool, so every seed draws as many items of each cost
    class, and the seed changes which ones, not how costly they are.  Cells
    whose cost class (the last part of the key) is FIXED_CLASS or more are
    drawn the same way for every seed, so the tail and the maximum come from
    the same ops in every run and move with the program, not the seed."""
    cells = {}
    for item in pool:
        cells.setdefault(key(item), []).append(item)
    keys = sorted(cells, key=str)
    quota = {k: n * len(cells[k]) / len(pool) for k in keys}
    alloc = {k: int(quota[k]) for k in keys}
    by_remainder = sorted(keys, key=lambda k: (alloc[k] - quota[k], str(k)))
    for k in by_remainder[:n - sum(alloc.values())]:
        alloc[k] += 1
    out = []
    for k in keys:
        cell, m = cells[k], alloc[k]
        r = random.Random(str(k)) if k[-1] >= FIXED_CLASS else rng
        out.extend(r.sample(cell, m) if m <= len(cell)
                   else [r.choice(cell) for _ in range(m)])
    return out


def cli_ops(seed, seconds, corpus=None):
    corpus = corpus if corpus is not None else load_corpus()
    rng = random.Random(f"decide_mix:{seed}")
    scale = seconds / 30.0
    ops = [e for e in corpus if e.get("name")]
    for stratum, n in DECIDE_DRAWS.items():
        pool = [e for e in corpus if e["stratum"] == stratum
                and not e.get("name")]
        ops.extend(stratified(rng, pool, max(1, round(n * scale)),
                              lambda e: (e.get("pivot"), e["seed_pass"],
                                         cost_class(e["seed_seconds"]))))
    rng.shuffle(ops)
    return [{"kind": "cli", "id": i, "entry": e["id"], "args": e["args"],
             "expect": e["expect"], "stratum": e["stratum"],
             "seed_pass": e["seed_pass"],
             **({"name": e["name"]} if e.get("name") else {})}
            for i, e in enumerate(ops)]


def run_cli(op):
    """The JSON document of one in-process CLI call."""
    from conicval import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(op["args"] + ["--json"])
    return json.loads(buf.getvalue())


def _answers(command, result):
    """The answer fields of a CLI result that the corpus records."""
    if command == "analyze":
        fam = result.get("family")
        return {"kind": result["extension_kind"], "verdict": result["verdict"],
                "case": result["case"],
                "family_count": None if fam is None else len(fam)}
    if command == "quat-decide":
        return {"kind": result["kind"]}
    if command == "quat-split":
        return {"split": result["split"]}
    if command == "hilbert":
        return {"symbol": result["symbol"]}
    if command == "family":
        return {"count": result["count"]}
    if command in ("eval", "gauss"):
        return {"value": result["value"]}
    raise KeyError(command)


def check_cli_output(op, out, validator):
    """Validate a CLI JSON document against the committed schema, compare
    it with the expected answers, then check the properties that hold
    whatever the answer: distinct v(c) across a family and a certificate
    that satisfies a*x^2 + b*y^2 = z^2."""
    errors = sorted(validator.iter_errors(out), key=str)
    if errors:
        return False, f"schema: {errors[0].message[:160]}"
    if out.get("status") != "ok":
        err = out.get("error")
        if isinstance(err, dict):
            err = f"{err.get('type')}: {err.get('message')}"
        return False, f"status {out.get('status')}: {str(err)[:160]}"
    command, result = out["command"], out["result"]
    got = _answers(command, result)
    for key, want in op["expect"].items():
        have = got.get(key)
        if key == "value":
            same = have is not None and Fraction(have) == Fraction(want)
        else:
            same = have == want
        if not same:
            return False, f"{key}: expected {want!r}, got {have!r}"
    members = result.get("members") if command == "family" else result.get("family")
    if members:
        if len({m["v_of_c"] for m in members}) != len(members):
            return False, "family members with equal v(c)"
    if command == "quat-split" and result.get("certificate") and \
            "GF(" not in op["args"][op["args"].index("--field") + 1]:
        x, y, z = (Fraction(c) for c in result["certificate"])
        a, b = (Fraction(_arg(op["args"], f)) for f in ("--a", "--b"))
        if a * x * x + b * y * y != z * z or not (x or y or z):
            return False, "certificate is not a point of the conic"
    return True, ""


def _arg(args, flag):
    for i, tok in enumerate(args):
        if tok == flag:
            return args[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    raise KeyError(flag)


@functools.lru_cache(maxsize=None)
def cli_validator():
    """The committed CLI output schema's validator; built on first use, so
    that set-up does not import jsonschema."""
    import jsonschema
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)
