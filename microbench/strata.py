"""Time the benchmark corpus per stratum and fingerprint its outputs.

Every command of ``perfbench/expected.json`` runs in-process through
``cli.main(args + ['--json'])``, in corpus order, once per pass.  A
command's record is [stdout, stderr, exit code], or [stdout, stderr,
repr(exception)] if it raised the Gauss-constant defect's
``AttributeError``; the fingerprint is the sha256 over the sha256 of each
record's JSON, so two trees give the same fingerprint exactly when every
command gives the same output.  Every pass must give the same
fingerprint.

A stratum's time is its process CPU time in one pass, summed over its
commands, and the best (least) over the passes is printed; the first pass
also warms caches (sympy's imports, ``canonical_modulus``), so use
``--passes`` of at least 2.  sympy's ``factor_cache``, which
``clear_cache()`` does not empty, is emptied before each command once
sympy is loaded.  Prints one JSON object.

    PYTHONPATH=src python microbench/strata.py [--passes 3]
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import time

from conicval.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([*args, "--json"])
        except AttributeError as exc:   # a gauss command that meets the
            code = repr(exc)            # Gauss-constant defect
    return [out.getvalue(), err.getvalue(), code]


def one_pass(entries: list[dict]) -> tuple[dict, str]:
    times, digests = {}, []
    for entry in entries:
        factor = sys.modules.get("sympy.ntheory.factor_")
        if factor is not None:
            factor.factor_cache.clear()
        t = time.process_time()
        record = run(entry["args"])
        dt = time.process_time() - t
        times[entry["stratum"]] = times.get(entry["stratum"], 0.0) + dt
        digests.append(hashlib.sha256(json.dumps(record).encode()).hexdigest())
    return times, hashlib.sha256("".join(digests).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    entries = json.loads(
        (ROOT / "perfbench" / "expected.json").read_text())["entries"]
    best, sha = {}, None
    for _ in range(args.passes):
        times, digest = one_pass(entries)
        if sha not in (None, digest):
            raise AssertionError(f"outputs differ between passes: "
                                 f"{sha} then {digest}")
        sha = digest
        for name, dt in times.items():
            best[name] = min(best.get(name, dt), dt)
    print(json.dumps({
        "commands": len(entries),
        "passes": args.passes,
        "sha256": sha,
        "total_s": round(sum(best.values()), 4),
        "strata_s": {name: round(dt, 4) for name, dt in sorted(
            best.items(), key=lambda it: -it[1])},
    }, indent=1))


if __name__ == "__main__":
    sys.exit(main())
