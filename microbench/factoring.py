"""Time ``conicval.integers.factorint`` against ``sympy.factorint``.

Two input sets:

* corpus: every integer the benchmark corpus (``perfbench/expected.json``)
  hands to trial division when its commands run in-process, that is every
  numerator and denominator that ``square_class_reduce`` over Q or the
  Hilbert-symbol places factor, and every field order that ``GF`` splits;
* semiprimes: seeded products of two 10-digit primes (20 digits).

Each integer is factored once by each routine, timed as process CPU time;
sympy's ``factor_cache`` is emptied before each of its calls.  Both
factorisations must agree.  Integers whose cofactor after trial division
has 24 digits or more are counted but not timed, because there both
routines run ``sympy.factorint``.  Prints one JSON object.

    PYTHONPATH=src python microbench/factoring.py [--semiprimes 30] [--seed 1]
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


def semiprimes(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [int(sympy.nextprime(rng.randrange(10 ** 9, 10 ** 10))
                * sympy.nextprime(rng.randrange(10 ** 9, 10 ** 10)))
            for _ in range(count)]


def timed(numbers: list[int]) -> dict:
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
    return {"count": len(numbers),
            "integers_total_s": round(sum(ours), 6),
            "sympy_total_s": round(sum(theirs), 6),
            "integers_median_s": round(statistics.median(ours), 6),
            "sympy_median_s": round(statistics.median(theirs), 6),
            "integers_max_s": round(max(ours), 6),
            "sympy_max_s": round(max(theirs), 6)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--semiprimes", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    corpus = corpus_integers()
    small = [n for n in corpus
             if integers.trial_division(n)[1] < integers._RHO_LIMIT]
    print(json.dumps({
        "corpus": {**timed(small), "left_to_sympy": len(corpus) - len(small)},
        "semiprimes_20_digits": timed(semiprimes(args.semiprimes, args.seed)),
    }, indent=1))


if __name__ == "__main__":
    sys.exit(main())
