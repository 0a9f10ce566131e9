"""Every exported name resolves.

The benchmark tracer patches the constructions it names by module
attribute, so a deleted or renamed construction fails here, on every
supported Python, and not only in a benchmark run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import grassmann
from grassmann import constructions

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = [
    f"grassmann.{info.name}" for info in pkgutil.iter_modules(grassmann.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _tracer_constant(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_traced_constructions_resolve():
    names = _tracer_constant("NAMED_CONSTRUCTIONS")
    assert names
    assert [n for n in names if not callable(getattr(constructions, n, None))] == []
