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


def _imported_names(tree):
    """(name, line) for each name bound by an import, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _referenced_names(tree):
    """Every identifier the module uses as a name, including those inside
    string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _referenced_names(ast.parse(sub.value, mode="eval"))
    return names


def test_no_unused_imports_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _referenced_names(tree)
        found += [f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree) if name not in used]
    assert not found


def test_no_unreferenced_private_functions_in_package():
    # a module-level helper or a method (name starting with a single _) that
    # no module of the package names, by call, reference or attribute, is
    # dead code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = [f"{name}:{node.lineno} {node.name}"
             for name, tree in trees.items()
             for top in tree.body
             for node in (top.body if isinstance(top, ast.ClassDef) else [top])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in referenced]
    assert not found


def test_only_the_cli_imports_the_oracle():
    # the oracles cross-check the package, so no computation may rest on them
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + \
                    [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for alias in node.names
                         for p in alias.name.split(".")]
            else:
                continue
            if "oracle" in parts:
                found.append(f"{path.name}:{node.lineno}")
    assert not found
