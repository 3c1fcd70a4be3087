import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from conicval import cli
from conicval.errors import ExpressionOutOfRange
from conicval.parser import parse_element


@pytest.fixture(scope="module")
def validator():
    text = resources.files("conicval").joinpath(
        "schema/cli_output.schema.json").read_text()
    return jsonschema.Draft7Validator(json.loads(text))


class TestGoldenVerdicts:
    """Verdicts fixed by hand: over Q(t) at t and at infinity the residue
    algebra (-1, -1) over Q is a division algebra (negative definite), and
    over Q:p=5 the odd value v(5) = 1 leaves only ramified extensions."""

    def test_qt_at_t_is_present(self, run_cli, validator):
        code, doc = run_cli("analyze", "--val", "Q(t):place=t", "--a=-1",
                            "--b=-1")
        validator.validate(doc)
        result = doc["result"]
        assert code == 0
        assert (result["verdict"], result["extension_kind"]) == \
            ("PRESENT", "unramified_extension")
        residue = result["residue_field"]
        assert (residue["kappa"], residue["a0bar"], residue["b0bar"]) == \
            ("Q", "-1", "-1")

    def test_qt_at_infinity_is_present(self, run_cli, validator):
        code, doc = run_cli("analyze", "--val", "Q(t):place=inf", "--a=-1",
                            "--b=-1")
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["verdict"] == "PRESENT"

    def test_q5_odd_value_is_ramified_only(self, run_cli, validator):
        code, doc = run_cli("analyze", "--val", "Q:p=5", "--a=5", "--b=3")
        validator.validate(doc)
        assert code == 0
        assert (doc["result"]["verdict"], doc["result"]["extension_kind"]) == \
            ("ABSENT", "ramified_only")

    def test_split_over_gf9_certificate(self, run_cli, validator):
        code, doc = run_cli("quat", "split", "--field", "GF(9)", "--a=u",
                            "--b=2")
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["split"] is True
        assert doc["result"]["certificate"] == ["u + 2", "1", "1"]

    def test_split_over_q_certificate(self, run_cli, validator):
        # the first point of the height scan; Legendre descent alone would
        # give (8, 1, 9)
        code, doc = run_cli("quat", "split", "--field", "Q", "--a=2",
                            "--b=-47")
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["certificate"] == ["6", "1", "5"]

    def test_split_over_an_explicit_modulus(self, run_cli, validator):
        code, doc = run_cli("quat", "split", "--field", "GF(5)[u]/(u^2-2)",
                            "--a", "u", "--b", "2")
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["split"] is True
        assert doc["result"]["certificate"] == ["u", "1", "2*u + 3"]

    def test_polyrep_over_qt(self, run_cli, validator):
        # t*x generates Q(t)(x) over Q(t): degree 1, and x = Y/t is integral
        code, doc = run_cli("polyrep", "--field", "Q(t)", "--pivot", "t*x")
        validator.validate(doc)
        assert code == 0
        assert (doc["result"]["degree"], doc["result"]["integral"]) == (1, True)


class TestDistinguishedExtension:
    """w* on algebras with a != b, where it once went through a Gauss
    extension with pivot (a/b)*z: t at the place t got the value 0, the
    Q:p=5 command exited 1 with an AttributeError, and so did ``verify``.
    Its case2 residues went through it too: corpus id 719 exited 1 with an
    AttributeError, and id 732 printed a residue of a map that is not
    multiplicative."""

    def test_value_of_t_over_qt(self, run_cli, validator):
        code, doc = run_cli("eval", "--val", "Q(t):place=t", "--a", "t",
                            "--b", "1", "--f", "t", "--g", "0")
        validator.validate(doc)
        assert code == 0 and doc["result"]["value"] == "1"

    def test_unit_over_q5(self, run_cli, validator):
        code, doc = run_cli("eval", "--val", "Q:p=5", "--a", "2", "--b", "3",
                            "--f", "x", "--g", "1")
        validator.validate(doc)
        assert code == 0
        assert (doc["result"]["value"], doc["result"]["residue"]) == \
            ("0", "(T) + (1)*S")

    @pytest.mark.parametrize("args, residue", [
        (("--val", "Q:p=11", "--a=2", "--b=77", "--f=3", "--g=0"), "3"),
        (("--val", "Fq(t):q=3,place=t", "--a=2*(t)^2", "--b=2*(t)^1",
          "--f=(2*(t)^2)*x^0", "--g=(2)*x^1"), "(r)/(r^2 + 1)"),
    ], ids=["corpus-719", "corpus-732"])
    def test_case2_a_residue(self, run_cli, validator, args, residue):
        code, doc = run_cli("eval", *args)
        validator.validate(doc)
        assert code == 0
        assert (doc["result"]["value"], doc["result"]["residue"]) == \
            ("0", residue)

    def test_verify_every_suite_agrees(self, run_cli, validator):
        code, doc = run_cli("verify", "--suite", "all")
        validator.validate(doc)
        assert code == 0 and doc["result"]["agreement"] is True
        assert doc["result"]["reports"]
        assert all(r["agreement"] for r in doc["result"]["reports"])

    def test_verify_reports_a_disagreement(self, run_cli, validator,
                                           monkeypatch):
        # a symbol at infinity of the wrong sign breaks the product formula
        # on the first pair of the seed-0 stream
        symbol = cli.hilbert_symbol
        monkeypatch.setattr(cli, "hilbert_symbol", lambda a, b, place: (
            -1 if place == "inf" else 1) * symbol(a, b, place))
        argv = ("verify", "--suite", "hilbert", "--samples", "5")
        code, doc = run_cli(*argv)
        validator.validate(doc)
        assert code == 3 and doc["result"]["agreement"] is False
        [report] = doc["result"]["reports"]
        assert (report["agreement"], report["checked"]) == (False, 0)
        assert report["counterexample"] == ["2623/6891", "-8674/4243",
                                            "product formula"]
        code, out, _ = _run_main(argv)
        assert code == 3
        assert out.splitlines()[-1] == "verify: DISAGREEMENT FOUND"


class TestMalformedInput:
    """Inputs that once escaped as tracebacks, gave a wrong answer or never
    finished, or that name an option the subcommand does not take: each now
    exits 2, with an InputError or, for ``usage``, argparse's message."""

    @pytest.mark.parametrize("args, error, message", [
        (("analyze", "--val", "Q:p=5", "--a", "1/0", "--b", "3"),
         "ExpressionOutOfRange", "division by zero"),
        (("hilbert", "--a", "2", "--b", "3", "--place", "9"),
         "InputError", "neither a prime nor inf"),
        (("analyze", "--val", "Q(t):place=t", "--a=t^999999", "--b=1"),
         "ExpressionOutOfRange", "beyond 1000"),
        (("analyze", "--val", "Q(t):place=t", "--a=(t^100)^100", "--b=1"),
         "ExpressionOutOfRange", "beyond 1000"),
        (("analyze", "--val", "Q:p=5", "--a", "(2-2)^-1", "--b", "3"),
         "ExpressionOutOfRange", "division by zero"),
        (("analyze", "--val", "Q:p=5", "--a", "9" * 5000, "--b", "3"),
         "ExpressionOutOfRange", "integer literal too long"),
        (("quat", "split", "--field", "GF(5)[u]/(u^2/2)", "--a", "1",
          "--b", "2"), "InputError", "modulus must be monic"),
        (("quat", "split", "--field", "GF(5)[u]/(1/u)", "--a", "1",
          "--b", "2"), "InputError", "(1)/(u) is not a polynomial"),
        (("quat", "split", "--field", "GF(5)[u]/(u^-1)", "--a", "1",
          "--b", "2"), "InputError", "(1)/(u) is not a polynomial"),
        (("analyze", "--val", "Q:p=5", "--a=" + "(" * 150 + "1" + ")" * 150,
          "--b", "3"), "ExpressionOutOfRange", "nesting beyond 100"),
        (("analyze", "--val", "Q:p=5", "--a=" + "-" * 1000 + "1", "--b", "3"),
         "ExpressionOutOfRange", "nesting beyond 100"),
        (("analyze", "--val", "Q:p=5", "--a=2+", "--b", "3"),
         "ExpressionSyntaxError", "unexpected end of input (offset 2)"),
        (("analyze", "--val", "Q:p=5", "--a=2$", "--b", "3"),
         "ExpressionSyntaxError", "unexpected character '$' (offset 1)"),
        (("analyze", "--val", "Q:p=5", "--a=(2", "--b", "3"),
         "ExpressionSyntaxError", "expected ')' (offset 2)"),
        (("analyze", "--val", "Q:p=5", "--a=2)", "--b", "3"),
         "ExpressionSyntaxError", "unexpected ')' (offset 1)"),
        (("analyze", "--val", "Q:p=5", "--a=2^x", "--b", "3"),
         "ExpressionSyntaxError", "exponent must be an integer (offset 2)"),
        (("analyze", "--val", "Q:p=5", "--a=y", "--b", "3"),
         "UndeclaredVariable", "undeclared variable 'y' (offset 0)"),
        (("analyze", "--field", "Q", "--val", "Q:p=5", "--a", "2", "--b",
          "3"), "usage", "unrecognized arguments: --field Q"),
        (("analyze", "--val", "Q(t):t", "--a", "2", "--b", "3"),
         "InputError", "missing place= in 'Q(t):t'"),
        (("analyze", "--val", "Q:q=5", "--a", "2", "--b", "3"),
         "InputError", "unrecognized valuation descriptor 'Q:q=5'"),
        (("eval", "--val", "Q:p=5", "--a", "2", "--b", "3", "--f", "y",
          "--g", "1"), "UndeclaredVariable", "'y' (offset 0)"),
        (("gauss", "--val", "Q:p=5", "--pivot", "5*x", "--eval", "y"),
         "UndeclaredVariable", "'y' (offset 0)"),
        (("polyrep", "--pivot", "y"), "UndeclaredVariable", "'y' (offset 0)"),
        (("gauss", "--val", "Q:p=5", "--pivot", "t*x", "--eval", "x"),
         "UndeclaredVariable", "'t' (offset 0)"),
        (("polyrep", "--field", "Fq(t):q=9", "--pivot", "u*x"),
         "UndeclaredVariable", "'u' (offset 0)"),
    ])
    def test_exit_code_and_message(self, run_cli, validator, args, error,
                                   message):
        if error == "usage":
            code, out, err = _run_main([*args, "--json"])
            assert (code, out) == (2, "") and message in err
            return
        code, doc = run_cli(*args)
        validator.validate(doc)
        assert code == 2
        assert doc["error"]["type"] == error
        assert message in doc["error"]["message"]

    def test_degree_of_a_product_is_bounded(self, run_cli, validator):
        start = time.thread_time()
        code, doc = run_cli("analyze", "--val", "Q(t):place=t",
                            "--a=t^1000*t^1000*t^1000*t^1000", "--b=1")
        assert time.thread_time() - start < 1
        validator.validate(doc)
        assert code == 2
        assert doc["error"]["type"] == "ExpressionOutOfRange"
        assert "beyond 1000" in doc["error"]["message"]

    @pytest.mark.parametrize("text", ["t^1000", "t^500*t^500",
                                      "(t^999+1)/t", "t^1000-(t+1)^1000"])
    def test_degree_at_the_bound_is_accepted(self, qt, text):
        h = parse_element(text, qt, {"t": qt.gen()})
        assert h.degree() <= 1000

    @pytest.mark.parametrize("text", ["(" * 100 + "t" + ")" * 100,
                                      "-(" * 50 + "t" + ")" * 50])
    def test_nesting_at_the_bound_is_accepted(self, qt, text):
        # 100 levels parse; one more unary minus is one level too many
        assert parse_element(text, qt, {"t": qt.gen()}) == qt.gen()
        with pytest.raises(ExpressionOutOfRange, match="nesting beyond 100"):
            parse_element("-" + text, qt, {"t": qt.gen()})

    def test_nesting_from_a_deep_caller_is_an_input_error(self, qt):
        # 100 levels take about 820 frames, so 250 frames of callers can
        # exhaust the default limit of 1000 below the bound
        text = "(" * 100 + "t" + ")" * 100

        def parse_from(depth):
            if depth:
                return parse_from(depth - 1)
            try:
                return parse_element(text, qt, {"t": qt.gen()})
            except ExpressionOutOfRange as exc:
                return exc

        result = parse_from(250)
        assert result == qt.gen() or "stack" in str(result), result


class TestFiniteFieldFactorisation:
    """Splitting over F_q(t) when a has factors of degree d with q^d above a
    million, each within a bound of 2 s."""

    def test_f101_sextic_fails_at_the_first_cubic(self, run_cli, validator):
        # t is a nonsquare modulo each cubic, t^((101^3 - 1)/2) = -1, so
        # both symbols are -1; the cubic ending in 91 comes first in index
        # order
        e = (101 ** 3 - 1) // 2
        for row in ([1, 100, 100, 93], [1, 100, 100, 91]):
            assert gf_pow_mod([1, 0], e, row, 101, ZZ) == [100]
        start = time.thread_time()
        code, doc = run_cli("quat", "split", "--field", "Fq(t):q=101",
                            "--b", "t", "--a",
                            "(t^3+100*t^2+100*t+93)*(t^3+100*t^2+100*t+91)")
        assert time.thread_time() - start < 2
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["split"] is False
        assert doc["result"]["failing_place"] == "t^3 + 100*t^2 + 100*t + 91"

    def test_f25_quintic_factors(self, run_cli, validator):
        """t^5 - t - c with c = 1, 2 is irreducible over F_5 (Artin-Schreier)
        and stays so over F_25, where the trace 2c of c is nonzero.  At each
        quintic pi, t lies in F_5[t]/(pi), a subfield of index 2 of the
        residue field F_25[t]/(pi), so it is a square there; a(0) = 2 lies in
        F_5 and is a square in F_25.  So every symbol is 1."""
        start = time.thread_time()
        code, doc = run_cli("quat", "split", "--field", "Fq(t):q=25",
                            "--b", "t", "--a", "(t^5-t-1)*(t^5-t-2)")
        assert time.thread_time() - start < 2
        validator.validate(doc)
        assert code == 0
        assert doc["result"]["split"] is True
        assert doc["result"]["symbols"] == {
            "t^5 + 4*t + 3": 1, "t^5 + 4*t + 4": 1, "t": 1, "inf": 1}

    def test_analyze_over_a_quadratic_residue_field_of_a_large_prime(
            self, run_cli, validator):
        """The residue field F_p[t]/(t^2 + 1) of p = 10^9 + 7 has degree 2,
        so all p - 1 nonzero constants are squares; the first nonsquare
        comes after them in index order and is found without a scan over
        them."""
        start = time.thread_time()
        code, doc = run_cli("analyze", "--val",
                            "Fq(t):q=1000000007,place=t^2+1", "--a", "t",
                            "--b", "3")
        assert time.thread_time() - start < 2
        validator.validate(doc)
        assert code == 0


# One command for each of the nine subcommands.
_ONE_PER_SUBCOMMAND = [
    ("analyze", "--val", "Q:p=5", "--a=2", "--b=3"),
    ("eval", "--val", "Q(t):place=t", "--a=-1", "--b=-1", "--f", "x",
     "--g", "1"),
    ("gauss", "--val", "Q:p=5", "--pivot", "x", "--eval", "x^2+5"),
    ("hilbert", "--a", "2", "--b", "3", "--place", "3"),
    ("quat", "split", "--field", "GF(9)", "--a=u", "--b=2"),
    ("quat", "decide", "--val", "Q:p=5", "--a=2", "--b=3"),
    ("family", "--val", "Q:p=5", "--a=2", "--b=3", "--count", "2"),
    ("polyrep", "--pivot", "x^2/(x+1)"),
    ("verify", "--suite", "hilbert", "--samples", "5"),
]


def _run_main(argv):
    """(exit code, stdout, stderr) of one in-process main call; an argparse
    exit gives the code of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestNonnegativeCounts:
    """--samples, --family and --count take ints >= 0; a negative one is a
    usage error at parse time, exit 2, whatever the verdict (analyze builds
    no family when it is PRESENT, and family on a PRESENT case exits 1)."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "hilbert", "--samples", "-1"),
        ("analyze", "--val", "Q(t):place=t", "--a=-1", "--b=-1",
         "--family", "-3"),
        ("analyze", "--val", "Q:p=5", "--a=2", "--b=3", "--family", "-3"),
        ("family", "--val", "Q:p=5", "--a=2", "--b=3", "--count", "-3"),
        ("family", "--val", "Q(t):place=t", "--a=-1", "--b=-1",
         "--count", "-3"),
        ("verify", "--samples", "-1"),
    ])
    def test_negative_is_rejected(self, argv):
        code, out, err = _run_main(argv)
        assert (code, out) == (2, "")
        assert "must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--samples", "0"),
        ("verify", "--suite", "hilbert", "--samples", "0"),
        ("analyze", "--val", "Q(t):place=t", "--a=-1", "--b=-1",
         "--family", "0"),
        ("analyze", "--val", "Q:p=5", "--a=2", "--b=3", "--family", "0"),
        ("family", "--val", "Q:p=5", "--a=2", "--b=3", "--count", "0"),
    ])
    def test_zero_is_accepted(self, argv):
        assert _run_main(argv)[0] == 0


class TestParserReuse:
    """main builds its parser once per process; a call leaves nothing behind
    that a later call could see."""

    def test_family_size_falls_back_to_its_default(self, run_cli):
        args = ("analyze", "--val", "Q:p=5", "--a=2", "--b=3")
        code, doc = run_cli(*args, "--family", "5")
        assert code == 0 and len(doc["result"]["family"]) == 5
        code, doc = run_cli(*args)
        assert code == 0 and len(doc["result"]["family"]) == 3

    def test_output_does_not_depend_on_order_or_on_reuse(self, run_cli,
                                                         monkeypatch):
        forward = {argv: run_cli(*argv) for argv in _ONE_PER_SUBCOMMAND}
        backward = {argv: run_cli(*argv)
                    for argv in reversed(_ONE_PER_SUBCOMMAND)}
        monkeypatch.setattr(cli, "_parser", cli.build_argument_parser)
        fresh = {argv: run_cli(*argv) for argv in _ONE_PER_SUBCOMMAND}
        for argv in _ONE_PER_SUBCOMMAND:
            assert forward[argv][0] == 0
            assert forward[argv] == backward[argv] == fresh[argv]
        commands = [doc["command"] for _, doc in forward.values()]
        assert commands == ["analyze", "eval", "gauss", "hilbert",
                            "quat-split", "quat-decide", "family", "polyrep",
                            "verify"]

    def test_parser_survives_usage_errors_and_help(self):
        valid = ("hilbert", "--a", "2", "--b", "3", "--place", "3", "--json")
        before = _run_main(valid)
        assert before[0] == 0
        code, out, err = _run_main(["hilbert", "--a", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: conicval hilbert")
        assert "the following arguments are required: --b, --place" in err
        assert _run_main(valid) == before
        for argv in (["--help"], ["quat", "split", "--help"]):
            code, out, err = _run_main(argv)
            assert (code, err) == (0, "")
            assert out.startswith("usage: conicval")
            assert _run_main(valid) == before

    def test_parser_is_built_once_over_many_calls(self, monkeypatch):
        build = cli.build_argument_parser
        builds = []

        def counting_builder():
            builds.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_argument_parser", counting_builder)
        try:
            for i in range(20):
                argv = _ONE_PER_SUBCOMMAND[3 + i % 2]
                assert _run_main([*argv, "--json"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    @pytest.mark.parametrize("argv, expected_code", [
        (("hilbert", "--a", "2", "--b", "3", "--place", "3", "--json"), 0),
        (("hilbert", "--a", "0", "--b", "1", "--place", "3"), 1),
        (("hilbert", "--a", "2", "--b", "3", "--place", "9", "--json"), 2),
        (("hilbert", "--a", "1"), 2),
    ])
    def test_process_matches_in_process_main(self, argv, expected_code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "conicval.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        in_process = _run_main(argv)
        assert in_process[0] == expected_code
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process


def _subcommands(parser, prefix=()):
    """(name, parser) for every leaf subcommand of an argparse parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.get_default("handler") is None:
                    yield from _subcommands(sub, prefix + (name,))
                else:
                    yield " ".join(prefix + (name,)), sub


def test_every_option_is_read_by_its_handler():
    """Each option's dest appears as args.<dest> in its handler, or, for
    --val, --a and --b, in ``_valuation_and_coefficients`` when the handler
    calls it: an option nothing reads would be accepted and ignored."""
    shared = inspect.getsource(cli._valuation_and_coefficients)
    commands = dict(_subcommands(cli.build_argument_parser()))
    assert len(commands) == 9
    unread = []
    for name, parser in commands.items():
        source = inspect.getsource(parser.get_default("handler"))
        for action in parser._actions:
            dest = action.dest
            if dest in ("help", "json"):
                continue
            text = source
            if (dest in ("val", "a", "b")
                    and "_valuation_and_coefficients(args)" in source):
                text += shared
            if f"args.{dest}" not in text:
                unread.append((name, dest))
    assert unread == []


# The option strings of each subcommand, -h and --help aside.  A subcommand
# that takes --val reads its base field there and takes no --field; an
# option added to the parser must be added here too.
OPTIONS = {
    "analyze": ["--a", "--b", "--family", "--json", "--val"],
    "eval": ["--a", "--b", "--f", "--g", "--json", "--val"],
    "gauss": ["--eval", "--json", "--pivot", "--val"],
    "hilbert": ["--a", "--b", "--json", "--place"],
    "quat split": ["--a", "--b", "--field", "--json"],
    "quat decide": ["--a", "--b", "--json", "--val"],
    "family": ["--a", "--b", "--count", "--json", "--val"],
    "polyrep": ["--field", "--json", "--pivot"],
    "verify": ["--json", "--samples", "--seed", "--suite"],
}


def test_option_surface_is_declared():
    surface = {name: sorted(s for action in parser._actions
                            for s in action.option_strings
                            if s not in ("-h", "--help"))
               for name, parser in _subcommands(cli.build_argument_parser())}
    assert surface == OPTIONS


# A Q(t) eval on the w* of (t, 1), whose pivot inverse is reduced when the
# extension is built, and an identity-pivot gauss, both from
# tests/data/cli_golden.json; then corpus commands that test primality,
# prime powers or factor over Q on plain ints: a Q:p analyze (id 0), a
# hilbert at an odd prime (id 185), a q_split (id 305), the q_split_big
# command whose a is a 20-digit semiprime (id 366), a gf_split over GF(25)
# (id 387), a quat split over a field whose modulus is given and so tested
# for irreducibility, and an fqt analyze at a cubic place over F_9 (id 580).
_SYMPY_FREE = [
    ["eval", "--val", "Q(t):place=t", "--a=t", "--b=1", "--f=0",
     "--g=(2*(t)^2)*x^3"],
    ["gauss", "--val", "Q(t):place=t", "--pivot", "x",
     "--eval=(3*(t)^1)+(3*(t)^-1)*(x)^1+(-5)*(x)^2"],
    ["analyze", "--val", "Q:p=100003", "--a", "2", "--b", "3"],
    ["hilbert", "--a=4133/134", "--b=9325/124", "--place", "7"],
    ["quat", "split", "--field", "Q", "--a=-41/5", "--b=18/7"],
    ["quat", "split", "--field", "Q", "--a=41875260544475172209", "--b=5"],
    ["quat", "split", "--field", "Q",
     "--a=373635455550066441134494770891689", "--b=-1"],
    ["quat", "split", "--field", "GF(25)", "--a", "12", "--b", "29"],
    ["quat", "split", "--field", "GF(5)[u]/(u^2+2)", "--a", "u", "--b", "2"],
    ["analyze", "--val", "Fq(t):q=9,place=t^3+2*t^2+2*t+2",
     "--a=1*(t^3+2*t^2+2*t+2)^-1", "--b=1", "--family", "2"],
]


def test_import_and_qt_commands_leave_sympy_unloaded():
    """sympy is imported where a computation needs it, not by ``import
    conicval`` nor by primality or factoring of small integers: a fresh
    process imports the package and the CLI, runs the commands through
    ``cli.main`` and lists the sympy modules it holds."""
    script = (
        "import contextlib, io, json, sys\n"
        "import conicval, conicval.cli\n"
        "codes = []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(conicval.cli.main(args))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'sympy')]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(_SYMPY_FREE)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(_SYMPY_FREE)
    assert "sympy" not in loaded, loaded[:5]
