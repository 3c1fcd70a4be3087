"""Every function and method that ``perfbench/tracer.py`` wraps is found
under the name the tracer looks it up by.  A method must be defined on its
own class (the tracer reads ``vars(cls)[meth]``), so one that is renamed,
moved or only inherited is listed here, not met as a failing
``perfbench/run.py --trace 1`` run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(module, attr) -> bool:
    """Whether the tracer's ``_resolve(module, attr)`` finds attr."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and meth in vars(cls)
    return hasattr(mod, attr)


def test_every_traced_name_resolves():
    tracer = _tracer()
    targets = [(module, attr) for _, module, attrs in tracer.SPANS
               + tracer.COUNTS for attr in attrs]
    assert len(targets) > len(tracer.SPANS)
    missing = [f"{module}.{attr}" for module, attr in targets
               if not _resolves(module, attr)]
    assert not missing, f"unresolved: {', '.join(missing)}"
