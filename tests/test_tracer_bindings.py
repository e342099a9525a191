"""The bindings perfbench's tracer names exist in the package.

perfbench/tracing.py wraps module bindings and methods by name, and a
span whose binding is gone reads 0 without any error.  Its tables are
read here as literals, so nothing under perfbench is imported or run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables() -> dict:
    """SPANS, RENAMED, METHOD_SPANS and COUNTED, as written in tracing.py."""
    out = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "RENAMED", "METHOD_SPANS", "COUNTED"):
                out[name] = ast.literal_eval(node.value)
    return out


def _module(short: str):
    return importlib.import_module(f"hopfcheck.{short}")


def test_every_binding_and_method_the_tracer_names_exists():
    tables = _tables()
    assert sorted(tables) == ["COUNTED", "METHOD_SPANS", "RENAMED", "SPANS"]
    spanned = set()
    for mod, fn in tables["SPANS"]:
        assert callable(getattr(_module(mod), fn, None)), (mod, fn)
        spanned.add(id(getattr(_module(mod), fn)))
    for mod, binding in tables["RENAMED"]:
        # the tracer finds a binding by the identity of a SPANS function
        assert id(getattr(_module(mod), binding, None)) in spanned, (mod, binding)
    methods = list(tables["METHOD_SPANS"]) + [(m, c, a) for m, c, a in tables["COUNTED"]]
    methods.append(("cyclotomic", "Cyc", "is_zero"))  # the tracer's zero-test counter
    for mod, cls, attr in methods:
        owner = _module(mod) if cls is None else getattr(_module(mod), cls, None)
        assert callable(getattr(owner, attr, None)), (mod, cls, attr)
