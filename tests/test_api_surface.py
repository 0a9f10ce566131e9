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


# The oracle layer and what it stands on never import the construction
# layer, so agreement between the two is meaningful.
ROOT = Path(__file__).resolve().parents[1]
LOWER_LAYERS = [
    *(
        ROOT / "src" / "grassmann" / f"{name}.py"
        for name in ("core", "poly", "oracle", "expr", "scene", "svgplot")
    ),
    ROOT / "perfbench" / "inputs.py",
]
CONSTRUCTION_LAYER = ("grassmann.constructions", "grassmann.generate", "grassmann.cli")


def _imported_modules(path, package):
    """Every module name an import statement in the file can bind,
    relative imports resolved against `package`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            parts = parts[: len(parts) - node.level + 1] if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", LOWER_LAYERS, ids=lambda p: p.name)
def test_lower_layers_do_not_import_constructions(path):
    package = "grassmann" if path.parent.name == "grassmann" else path.parent.name
    imported = _imported_modules(path, package)
    assert imported, "no imports found; the walk is broken"
    bad = sorted(m for m in imported if m.startswith(CONSTRUCTION_LAYER))
    assert bad == []


def test_cli_uses_no_private_name_of_another_module():
    """The CLI drives the package through public names only: it neither
    imports an underscore-prefixed name nor reads one off an imported
    module."""
    tree = ast.parse((ROOT / "src" / "grassmann" / "cli.py").read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                if node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
    assert modules, "no module imports found; the walk is broken"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


# The construction layer builds its answers from joins and meets; the
# polynomial fit, its evaluation and the oracle module belong to the
# checks.  Whether a point is singular is decided by the CLI's gradient
# check, not by a construction.
ORACLE_TOOLS = {
    "grassmann.oracle",
    *(f"grassmann.poly.{name}" for name in ("nullspace_fit", "evaluate", "RankDeficientError")),
}


def test_constructions_import_no_polynomial_fit():
    path = ROOT / "src" / "grassmann" / "constructions.py"
    imported = _imported_modules(path, "grassmann")
    assert "grassmann.poly" in imported, "no poly import found; the walk is broken"
    assert sorted(imported & ORACLE_TOOLS) == []


def _calls(path, name):
    """Whether the file calls `name`, bare or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                return True
    return False


def test_only_the_oracle_reads_a_line_restriction():
    """A line's third point and contact order have one owner: `oracle`
    restricts a form to a line, and the CLI asks it for the verdicts."""
    package = ROOT / "src" / "grassmann"
    callers = [p.stem for p in sorted(package.glob("*.py")) if _calls(p, "restrict_to_line")]
    assert [c for c in callers if c != "poly"] == ["oracle"]
    imported = _imported_modules(package / "cli.py", "grassmann")
    assert "grassmann.oracle" in imported, "no oracle import found; the walk is broken"
    assert sorted(m for m in imported if m.endswith(".restrict_to_line")) == []


def test_constructions_expand_the_cubic_without_the_evaluator():
    """expand_cubic is a closed form: the construction layer neither
    imports nor calls the expression parser or the symbolic evaluator,
    which stay the engine of the CLI's eval command and the tests'
    reference for the form."""
    path = ROOT / "src" / "grassmann" / "constructions.py"
    imported = _imported_modules(path, "grassmann")
    assert "grassmann.core" in imported, "no core import found; the walk is broken"
    evaluator = {f"grassmann.expr.{name}" for name in ("parse", "eval_symbolic")}
    assert sorted(imported & evaluator) == []
    assert not _calls(path, "parse") and not _calls(path, "eval_symbolic")
