"""Command-line front end.

Subcommands: analyze, eval, gauss, hilbert, quat (split | decide), family,
polyrep, verify.  Every command accepts --json for machine-readable output
conforming to the committed schema (schema/cli_output.schema.json).  A
subcommand that takes --val reads the base field there, quat split and
polyrep take --field, and no option picks among valid certificates.

Exit codes: 0 success, 1 mathematical error, 2 usage error (including
malformed expressions and dyadic valuation descriptors, which are rejected
at parse time), 3 oracle disagreement from verify.  Each verify suite is a
stream of checks, each None or a counterexample, that oracle.run_checks
turns into a report; its fixtures are descriptors, as a user would write.

The argument parser is built once per process, on the first call of main,
and reused by every later call.  main can be called many times in one
process, as tests/conftest.py::run_cli, perfbench/workloads.py::run_cli and
perfbench/corpus.py do: each call parses into a fresh namespace, and no
argument has a mutable default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from .conic import ConicFunctionField, DistinguishedExtension, analyze, \
    rational_residue_family
from .errors import ConicvalError, InputError
from .fields import FF, FunctionField, GF, QQ, is_square
from .gauss import (INERT, SPLIT_PAIR, GaussExtension, gauss_residue,
                    quadratic_extension_analysis, subfield_degree)
from .integers import is_prime
from .oracle import (degree_oracle, hensel_count, isotropy_search,
                     run_checks, sample_rational, sample_ratfunc,
                     valuation_axiom_fuzz)
from .parser import parse_element
from .quaternion import (QuaternionAlgebra, _rational_places,
                         decide_unramified_extension, hilbert_symbol, is_split)
from .valuation import (InfinitePlaceValuation, PAdicValuation,
                        PlaceValuation, Valuation)
from .value import Value


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

_GF_EXT = re.compile(r"^GF\((\d+)\)\[(\w+)\]/\((.+)\)$")
_GF = re.compile(r"^GF\((\d+)\)$")
_FQT = re.compile(r"^Fq\(t\):q=(\d+)$")


def parse_base_field(desc: str):
    desc = desc.strip()
    try:
        if desc == "Q":
            return QQ
        if desc == "Q(t)":
            return FunctionField(QQ, "t")
        m = _GF.match(desc)
        if m:
            return GF(int(m.group(1)))
        m = _GF_EXT.match(desc)
        if m:
            p, var, mod = int(m.group(1)), m.group(2), m.group(3)
            ring = FunctionField(FF(p), var)
            poly = _as_poly(parse_element(mod, ring, field_variables(ring)),
                            ring.ring)
            return FF(p, tuple(c.coeffs[0] for c in poly.coeffs), var=var)
        m = _FQT.match(desc)
        if m:
            return FunctionField(GF(int(m.group(1))), "t")
    except ConicvalError as exc:
        raise InputError(f"bad field descriptor {desc!r}: {exc}") from exc
    raise InputError(f"unrecognized field descriptor {desc!r}")


def _as_poly(value, ring):
    from .fields import Poly, RatFunc
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        if value.is_polynomial():
            return value.num
        raise InputError(f"{value} is not a polynomial")
    return ring.poly([value])


def field_variables(ctx) -> dict:
    if isinstance(ctx, FunctionField):
        return {ctx.var: ctx.gen()}
    if isinstance(ctx, FF) and ctx.degree > 1:
        return {ctx.var: ctx.gen()}
    return {}


def parse_field_element(text: str, ctx):
    value = parse_element(text, ctx, field_variables(ctx))
    try:
        return ctx.coerce(value)
    except ConicvalError as exc:
        raise InputError(f"{text!r} does not describe an element of {ctx!r}: "
                         f"{exc}") from exc


def _parse_in_x(text: str, ef):
    """An element of ef = E(x), with E's variables and x declared."""
    variables = dict(field_variables(ef.coefficient_field))
    variables[ef.var] = ef.gen()
    return ef.coerce(parse_element(text, ef, variables))


def parse_valuation(desc: str) -> Valuation:
    desc = desc.strip()
    try:
        if desc.startswith("Q:"):
            m = re.match(r"^Q:p=(\d+)$", desc)
            if not m:
                raise InputError(f"unrecognized valuation descriptor {desc!r}")
            return PAdicValuation(int(m.group(1)))
        if desc.startswith("Q(t):"):
            base = FunctionField(QQ, "t")
            place = desc[len("Q(t):"):]
        else:
            m = re.match(r"^Fq\(t\):q=(\d+),(place=.*)$", desc)
            if not m:
                raise InputError(f"unrecognized valuation descriptor {desc!r}")
            base = FunctionField(GF(int(m.group(1))), "t")
            place = m.group(2)
        if not place.startswith("place="):
            raise InputError(f"missing place= in {desc!r}")
        place = place[len("place="):]
        if place == "inf":
            return InfinitePlaceValuation(base)
        poly = _as_poly(parse_element(place, base, field_variables(base)),
                        base.ring)
        return PlaceValuation(base, poly)
    except InputError:
        raise
    except ConicvalError as exc:
        raise InputError(f"bad valuation descriptor {desc!r}: {exc}") from exc


def _valuation_and_coefficients(args):
    """(v, a, b) from --val, --a and --b; a and b lie in v's base field."""
    v = parse_valuation(args.val)
    return (v, parse_field_element(args.a, v.domain),
            parse_field_element(args.b, v.domain))


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, human_lines, exit_code)
# ---------------------------------------------------------------------------


def _cmd_analyze(args):
    v, a, b = _valuation_and_coefficients(args)
    report = analyze(v, ConicFunctionField(v.domain, a, b),
                     family_count=args.family)
    d = report.as_dict()
    lines = [f"verdict: {d['verdict']} ({d['extension_kind']})",
             f"case: {d['case']}",
             f"value group: {'Z' if report.value_group.generator == 1 else '(1/2)Z'}"
             f"  cosets {d['value_group']['coset_representatives']}",
             f"residue field: {report.residue}"]
    if report.rational_warning:
        lines.append("note: b is a square, so the function field is rational "
                     "and the algebra splits")
    if report.family is not None:
        for m in report.family:
            lines.append(f"family member: pivot {m.pivot}  "
                         f"[{m.quadratic_kind}] residue {m.residue_description}")
    if report.family_note:
        lines.append(f"family note: {report.family_note}")
    return d, lines, 0


def _cmd_eval(args):
    v, a, b = _valuation_and_coefficients(args)
    cf = ConicFunctionField(v.domain, a, b)
    ext = DistinguishedExtension(v, cf)
    elem = cf.element(_parse_in_x(args.f, cf.ef), _parse_in_x(args.g, cf.ef))
    val = ext.value_of(elem)
    result = {"element": str(elem), "value": str(val)}
    lines = [f"w*({elem}) = {val}"]
    if val == Value(0):
        res = ext.residue_of(elem)
        result["residue"] = str(res)
        lines.append(f"residue: {res}")
    return result, lines, 0


def _cmd_gauss(args):
    v = parse_valuation(args.val)
    ef = FunctionField(v.domain, "x")
    pivot = _parse_in_x(args.pivot, ef)
    w = GaussExtension(v, pivot)
    h = _parse_in_x(args.eval, ef)
    val = w.value_of(h)
    result = {"pivot": str(pivot), "element": str(h), "value": str(val)}
    lines = [f"w({h}) = {val}"]
    if val == Value(0):
        res = gauss_residue(w, h)
        result["residue"] = str(res)
        result["residue_variable"] = w.residue_var
        lines.append(f"residue: {res}")
    return result, lines, 0


def _cmd_hilbert(args):
    place = args.place.strip()
    if place != "inf":
        if not (place.isdigit() and is_prime(int(place))):
            raise InputError(f"place {place!r} is neither a prime nor inf")
    a = Fraction(parse_field_element(args.a, QQ))
    b = Fraction(parse_field_element(args.b, QQ))
    s = hilbert_symbol(a, b, place if place == "inf" else int(place))
    return ({"a": str(a), "b": str(b), "place": place, "symbol": s},
            [f"({a}, {b})_{place} = {s:+d}"], 0)


def _cmd_quat_split(args):
    field = parse_base_field(args.field)
    a = parse_field_element(args.a, field)
    b = parse_field_element(args.b, field)
    sr = is_split(QuaternionAlgebra(field, a, b))
    d = sr.as_dict()
    lines = [f"split: {sr.split}"]
    if sr.certificate:
        lines.append("certificate (x, y, z): "
                     + ", ".join(str(c) for c in sr.certificate))
    if sr.failing_place:
        lines.append(f"division witnessed at place {sr.failing_place}")
    if sr.note:
        lines.append(sr.note)
    return d, lines, 0


def _cmd_quat_decide(args):
    v, a, b = _valuation_and_coefficients(args)
    verdict = decide_unramified_extension(QuaternionAlgebra(v.domain, a, b), v)
    d = verdict.as_dict()
    lines = [f"kind: {verdict.kind}",
             f"normalized presentation: ({verdict.normalization.a}, "
             f"{verdict.normalization.b}) [{verdict.normalization.shape}]"]
    return d, lines, 0


def _cmd_family(args):
    v, a, b = _valuation_and_coefficients(args)
    cf = ConicFunctionField(v.domain, a, b)
    members = rational_residue_family(v, cf, args.count)
    d = {"count": len(members), "members": [m.as_dict() for m in members]}
    lines = [f"{len(members)} extension(s) with rational residue field"]
    for m in members:
        lines.append(f"  pivot {m.pivot}  v(c) = {m.c_value}  "
                     f"[{m.quadratic_kind}]")
    return d, lines, 0


def _cmd_polyrep(args):
    field = parse_base_field(args.field) if args.field else QQ
    y = _parse_in_x(args.pivot, FunctionField(field, "x"))
    degree, integral = subfield_degree(y)
    return ({"pivot": str(y), "degree": degree, "integral": integral},
            [f"[E(x) : E(Y)] = {degree}; x integral over E[Y]: {integral}"], 0)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


# the valuations of the Gauss extensions with pivot x, and the (valuation,
# a, b) of the w* fixtures, as descriptors
_GAUSS_VALUATIONS = ("Q:p=5", "Q:p=3", "Q(t):place=t", "Q(t):place=t-2",
                     "Q(t):place=inf", "Fq(t):q=3,place=t",
                     "Fq(t):q=3,place=t^2+1", "Fq(t):q=5,place=inf")
_WSTAR_ALGEBRAS = (("Q(t):place=t", "-1", "-1"), ("Q(t):place=t", "t", "1"),
                   ("Q:p=5", "2", "3"))


def _suite_gauss(seed, samples):
    return [valuation_axiom_fuzz(
        GaussExtension(v, FunctionField(v.domain, "x").gen()), samples, seed)
        for v in map(parse_valuation, _GAUSS_VALUATIONS)]


def _suite_wstar(seed, samples):
    reports = []
    for val, a, b in _WSTAR_ALGEBRAS:
        v = parse_valuation(val)
        ext = DistinguishedExtension(v, ConicFunctionField(
            v.domain, parse_field_element(a, v.domain),
            parse_field_element(b, v.domain)))
        reports.append(valuation_axiom_fuzz(
            ext, samples, seed, name=f"wstar_axioms[{ext.describe()}]"))
    return reports


def _seeded(name, checks):
    """The suite of one report on the checks ``checks(rng, samples)``."""
    return lambda seed, samples: [run_checks(
        name, f"seed={seed}", checks(random.Random(seed), samples))]


def _hilbert_checks(rng, samples):
    for _ in range(samples):
        a = sample_rational(rng, 10 ** 4)
        b = sample_rational(rng, 10 ** 4)
        if a and b:
            prod = math.prod(hilbert_symbol(a, b, pl)
                             for pl in _rational_places(a, b))
            yield None if prod == 1 else (a, b, "product formula")


def _degree_checks(rng, samples):
    f7x = FunctionField(GF(7), "x")
    for _ in range(samples):
        y = sample_ratfunc(rng, f7x, 5, 5)
        if y.degree() >= 1:
            deg, _ = subfield_degree(y)
            yield None if deg == degree_oracle(y) else (y, "degree mismatch")


def _hensel_checks(rng, samples):
    for _ in range(samples):
        p = rng.choice([3, 5, 7, 11, 13])
        v = PAdicValuation(p)
        a = sample_rational(rng, 50)
        if (not a or int(v.value_of(a).fraction) % 2
                or is_square(a, QQ)[0]):
            continue
        kind = quadratic_extension_analysis(v, a).kind
        roots = hensel_count(v, a, 6)
        yield (None if (kind, roots) in ((SPLIT_PAIR, 2), (INERT, 0))
               else (p, a, kind, roots))


def _isotropy_checks(k):
    for a in k.nonzero_elements():
        for b in k.nonzero_elements():
            sr = is_split(QuaternionAlgebra(k, a, b))
            point = isotropy_search(a, b)
            x, y, z = sr.certificate
            yield (None if sr.split and point is not None
                   and a * x * x + b * y * y == z * z else (a, b))


def _suite_isotropy(seed, samples):
    del seed, samples
    reports = []
    for q in (3, 5, 7, 9):
        reports.append(run_checks(f"isotropy_exhaustive[GF({q})]", f"q={q}",
                                  _isotropy_checks(GF(q))))
        if not reports[-1].agreement:
            break
    return reports


_SUITES = {
    "gauss": _suite_gauss,
    "wstar": _suite_wstar,
    "hilbert": _seeded("hilbert_product_formula", _hilbert_checks),
    "degree": _seeded("degree_formula_vs_linear_algebra", _degree_checks),
    "hensel": _seeded("quadratic_trichotomy_vs_hensel", _hensel_checks),
    "isotropy": _suite_isotropy,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in _SUITES:
            raise InputError(f"unknown suite {args.suite!r}; "
                             f"choose from {', '.join(_SUITES)} or all")
    reports = []
    for name in names:
        reports.extend(_SUITES[name](args.seed, args.samples))
    ok = all(r.agreement for r in reports)
    result = {"suite": args.suite, "seed": args.seed, "samples": args.samples,
              "agreement": ok, "reports": [r.as_dict() for r in reports]}
    lines = [f"{r.name}: {'ok' if r.agreement else 'DISAGREEMENT'} "
             f"({r.checked} checks)" for r in reports]
    lines.append("verify: " + ("all agree" if ok else "DISAGREEMENT FOUND"))
    return result, lines, 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    """The argparse type of a sample count or a family size: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_argument_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="conicval",
        description="Exact computation with valuations on conic function "
                    "fields: Gauss extensions, Hilbert symbols, quaternion "
                    "splitting, and the distinguished extension decision.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ab=True):
        p.add_argument("--val", required=True,
                       help='valuation descriptor, which names the base '
                       'field, e.g. "Q:p=5", "Q(t):place=t", '
                       '"Fq(t):q=3,place=t^2+1", "Fq(t):q=5,place=inf"')
        if ab:
            p.add_argument("--a", required=True, help="first coefficient")
            p.add_argument("--b", required=True, help="second coefficient")
        p.add_argument("--json", action="store_true", help="machine output")

    p = sub.add_parser("analyze", help="decide the distinguished extension "
                       "and report all constructive data")
    common(p)
    p.add_argument("--family", type=_nonnegative_int, default=3,
                   help="sample size for the rational-residue family")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("eval", help="value (and residue) of f + g*s under "
                       "the distinguished extension")
    common(p)
    p.add_argument("--f", required=True, help="rational function in x")
    p.add_argument("--g", required=True, help="rational function in x")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gauss", help="Gauss extension value and residue")
    common(p, ab=False)
    p.add_argument("--pivot", required=True, help="pivot, e.g. 5*x or t*(x-1)")
    p.add_argument("--eval", required=True, help="element of E(x)")
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("hilbert", help="Hilbert symbol over Q")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--place", required=True, help="odd prime, 2, or inf")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_hilbert)

    quat = sub.add_parser("quat", help="quaternion algebra operations")
    qsub = quat.add_subparsers(dest="subcommand", required=True)
    p = qsub.add_parser("split", help="splitting test with certificate")
    p.add_argument("--field", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_quat_split)
    p = qsub.add_parser("decide", help="unramified extension decision")
    common(p)
    p.set_defaults(handler=_cmd_quat_decide)

    p = sub.add_parser("family", help="extensions with rational residue field")
    common(p)
    p.add_argument("--count", type=_nonnegative_int, required=True)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("polyrep", help="degree of E(x) over E(Y)")
    p.add_argument("--pivot", required=True, help="rational function in x")
    p.add_argument("--field", help="coefficient field (default Q)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_polyrep)

    p = sub.add_parser("verify", help="run oracle cross-check suites")
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(_SUITES)} or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_nonnegative_int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_argument_parser()


def _command_name(args) -> str:
    name = args.command
    if getattr(args, "subcommand", None):
        name += "-" + args.subcommand
    return name


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process, on the first call, so main can be
    called many times in one process.  Usage errors and --help leave through
    argparse's SystemExit, with codes 2 and 0."""
    args = _parser().parse_args(argv)
    use_json = getattr(args, "json", False)
    name = _command_name(args)
    try:
        result, lines, code = args.handler(args)
    except InputError as exc:
        _emit_error(name, exc, use_json)
        return 2
    except ConicvalError as exc:
        _emit_error(name, exc, use_json)
        return 1
    if use_json:
        print(json.dumps({"command": name, "status": "ok", "result": result},
                         indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(name: str, exc: Exception, use_json: bool):
    if use_json:
        print(json.dumps({"command": name, "status": "error",
                          "error": {"type": type(exc).__name__,
                                    "message": str(exc)}}, indent=2))
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
