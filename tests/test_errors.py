import ast
import pathlib

import conicval
from conicval.errors import ConicvalError, InvariantViolated

SRC = pathlib.Path(conicval.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements; internal checks raise
    # InvariantViolated instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_invariant_violation_is_a_conicval_error():
    assert issubclass(InvariantViolated, ConicvalError)
