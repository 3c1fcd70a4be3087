"""Golden CLI outputs: the corpus commands give the recorded output.

``data/cli_golden.json`` holds the argument lists of the benchmark corpus
commands whose answers are right (the ``seed_pass: true`` entries of
``perfbench/expected.json``, copied so that this test does not read the
benchmark's files), each with the sha256 of its in-process output:
``cli.main(args + ["--json"])``'s stdout, stderr and exit code.  The 34
entries left out answer wrong because of the Gauss-constant defect; the
change that fixes it adds them, so that no wrong answer is pinned here.

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
    assert len(commands) == 700
    changed = [" ".join(c["args"]) for c in commands
               if output_sha256(c["args"]) != c["sha256"]]
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    commands = json.loads(GOLDEN.read_text())
    for c in commands:
        c["sha256"] = output_sha256(c["args"])
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, commands)) + "\n]\n")
