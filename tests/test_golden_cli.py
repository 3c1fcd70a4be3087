"""Golden CLI outputs: the corpus commands give the recorded output.

``data/cli_golden.json`` holds the argument lists of the benchmark corpus
commands whose answers are right, each with the sha256 of its in-process
output: ``cli.main(args + ["--json"])``'s stdout, stderr and exit code.
The commands are copied from ``perfbench/expected.json`` so that this test
does not read the benchmark's files: its ``seed_pass: true`` entries, and
the 29 ``seed_pass: false`` entries that w* answers right since it values
and takes residues on rows with a monomial valuation (ids 672-674, 678,
681-686, 688, 692, 696, 702, 703, 706, 713, 714, 717-720, 722-724, 726,
727, 729 and 731).  Of these, 673, 682, 713 and 722 print a case3_units
residue and 719 a case2_a one; id 732 (``seed_pass: true``) prints a
case2_a residue too.  The corpus checks no residue, so these hashes are
the only pin on them.

Five entries stay out, because the Gauss-constant defect, which now lives
only in ``GaussExtension``, still answers them wrong: the ``gauss`` commands
with a pivot other than x (ids 601, 634, 644, 653 and 662).  The change that
fixes the defect adds them, so that no wrong answer is pinned here.

``VERIFY_SHA256`` pins the output of ``verify`` the same way for three
--seed and --samples arguments, so that the suites keep their names,
digests, counts and random draws; the regeneration below leaves it alone.

When a change of output is intended and declared, regenerate the hashes of
the commands already in the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from conicval.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def output_sha256(args) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*args, "--json"])
    return hashlib.sha256(
        json.dumps([out.getvalue(), err.getvalue(), code]).encode()).hexdigest()


def test_corpus_outputs_are_unchanged():
    commands = json.loads(GOLDEN.read_text())
    assert len(commands) == 729
    changed = [" ".join(c["args"]) for c in commands
               if output_sha256(c["args"]) != c["sha256"]]
    assert not changed, "\n".join(changed)


VERIFY_SHA256 = {
    ("--seed", "0", "--samples", "5"):
        "db8b8276be24370a75b60189994383a76ce0e9f2cb17c4c8ad39b1289e5db6b2",
    ("--seed", "7", "--samples", "40"):
        "c50e4157fb2f6c6a0e8697fa19c790047a912af8605fc7ee9c14ed6de857076b",
    ("--seed", "0"):
        "809e3560e51603e16f2c5185f5e61cf2cd83b9c23b7ca706af68e0ab0c76112e",
}


def test_verify_outputs_are_unchanged():
    changed = [" ".join(args) for args, sha in VERIFY_SHA256.items()
               if output_sha256(["verify", *args]) != sha]
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    commands = json.loads(GOLDEN.read_text())
    for c in commands:
        c["sha256"] = output_sha256(c["args"])
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, commands)) + "\n]\n")
