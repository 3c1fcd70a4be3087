"""Time ``conicval.integers.factorint`` against ``sympy.factorint``.

Three input sets:

* corpus: every integer the benchmark corpus (``perfbench/expected.json``)
  hands to trial division when its commands run in-process, that is every
  numerator and denominator that ``square_class_reduce`` over Q or the
  Hilbert-symbol places factor, and every field order that ``GF`` splits,
  split by its cofactor after trial division: below 10^23 (trial division,
  Brent's rho) and from 10^23 up (p-1, capped rho, ECM), the second timed
  per input;
* semiprimes: seeded products of two 10-digit primes (20 digits);
* big semiprimes: seeded products of two 17-digit primes (33 or 34
  digits), which only ECM splits, timed per input.

Each integer is factored once by each routine, timed as process CPU time;
sympy's ``factor_cache`` is emptied before each of its calls.  Both
factorisations must agree.  Prints one JSON object, with one line per
input for the last two sets.

    PYTHONPATH=src python microbench/factoring.py [--semiprimes 30]
        [--big 12] [--seed 1]
"""

import argparse
import contextlib
import io
import json
import pathlib
import random
import statistics
import sys
import time

import sympy
from sympy.ntheory.factor_ import factor_cache

from conicval import integers
from conicval.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def corpus_integers() -> list[int]:
    """The integers trial division sees while the corpus runs, in order."""
    seen = []
    real = integers.trial_division

    def spy(n):
        seen.append(n)
        return real(n)
    entries = next(v for v in json.loads(
        (ROOT / "perfbench" / "expected.json").read_text()).values()
        if isinstance(v, list))
    integers.trial_division = spy
    try:
        for entry in entries:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli_main([*entry["args"], "--json"])
                except AttributeError:  # a gauss command that meets the
                    pass                # Gauss-constant defect
    finally:
        integers.trial_division = real
    return seen


def semiprimes(count: int, seed: int, digits: int) -> list[int]:
    rng, lo, hi = random.Random(seed), 10 ** (digits - 1), 10 ** digits
    return [int(sympy.nextprime(rng.randrange(lo, hi))
                * sympy.nextprime(rng.randrange(lo, hi)))
            for _ in range(count)]


def timed(numbers: list[int], per_input: bool = False) -> dict:
    ours, theirs = [], []
    for n in numbers:
        t = time.process_time()
        mine = integers.factorint(n)
        ours.append(time.process_time() - t)
        factor_cache.clear()
        t = time.process_time()
        ref = sympy.factorint(n)
        theirs.append(time.process_time() - t)
        if mine != {int(p): e for p, e in ref.items()}:
            raise AssertionError(f"factorint({n}) = {mine}, sympy {ref}")
    out = {"count": len(numbers),
           "integers_total_s": round(sum(ours), 6),
           "sympy_total_s": round(sum(theirs), 6),
           "integers_median_s": round(statistics.median(ours), 6),
           "sympy_median_s": round(statistics.median(theirs), 6),
           "integers_max_s": round(max(ours), 6),
           "sympy_max_s": round(max(theirs), 6)}
    if per_input:
        out["per_input"] = [f"{len(str(n))} digits: {a:.4f} s, sympy {b:.4f} s"
                            for n, a, b in zip(numbers, ours, theirs)]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--semiprimes", type=int, default=30)
    ap.add_argument("--big", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    corpus = corpus_integers()
    small, big = [], []
    for n in corpus:
        rough = integers.trial_division(n)[1] >= integers._RHO_LIMIT
        (big if rough else small).append(n)
    print(json.dumps({
        "corpus": timed(small),
        "corpus_24_digits_up": timed(big, per_input=True),
        "semiprimes_20_digits": timed(
            semiprimes(args.semiprimes, args.seed, 10)),
        "semiprimes_33_digits": timed(
            semiprimes(args.big, args.seed, 17), per_input=True),
    }, indent=1))


if __name__ == "__main__":
    sys.exit(main())
