import contextlib
import io
import json

import pytest

from conicval.cli import main
from conicval.fields import FF, GF, FunctionField, QQ
from conicval.valuation import (InfinitePlaceValuation, PAdicValuation,
                                PlaceValuation)


@pytest.fixture(scope="session")
def qt():
    return FunctionField(QQ, "t")


@pytest.fixture(scope="session")
def vt(qt):
    return PlaceValuation(qt, qt.ring.gen())


@pytest.fixture(scope="session")
def v5():
    return PAdicValuation(5)


@pytest.fixture(scope="session")
def v3():
    return PAdicValuation(3)


@pytest.fixture(scope="session")
def f3t():
    return FunctionField(FF(3), "t")


@pytest.fixture(scope="session")
def f5t():
    return FunctionField(FF(5), "t")


@pytest.fixture(scope="session")
def v3t(f3t):
    return PlaceValuation(f3t, f3t.ring.gen())


@pytest.fixture(scope="session")
def run_cli():
    """Run the CLI in-process with --json; returns (exit code, document)."""
    def run(*args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*args, "--json"])
        return code, json.loads(out.getvalue())
    return run
