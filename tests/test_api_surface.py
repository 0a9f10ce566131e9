"""Every exported name resolves.

The benchmark tracer patches the constructions it names by module
attribute, so a deleted or renamed construction fails here, on every
supported Python, and not only in a benchmark run.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grassmann
from grassmann import constructions, core

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
PACKAGE = ROOT / "src" / "grassmann"
LOWER_LAYERS = [
    *(PACKAGE / f"{name}.py" for name in ("core", "poly", "oracle", "expr", "scene")),
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


def test_lower_layers_load_without_constructions():
    """Importing the lower layers runs the package's __init__ too, and it
    must not pull the construction layer in behind them."""
    code = (
        "import sys\n"
        "import grassmann.oracle, grassmann.core, grassmann.poly, grassmann.expr, grassmann.scene\n"
        f"print(sorted(m for m in sys.modules if m.startswith({CONSTRUCTION_LAYER!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_package_namespace_binds_only_the_version():
    """Every name is imported from its module: the package's __init__
    holds its docstring and __version__, and no re-export."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__version__"]:
            bound.append("__version__")
        else:
            bound.append(f"{type(node).__name__} at line {node.lineno}")
    assert bound == ["__version__"]


def test_cli_leaves_the_expression_tree_to_expr():
    """The CLI asks expr whether x is free; it imports no tree node class."""
    imported = _imported_modules(PACKAGE / "cli.py", "grassmann")
    assert "grassmann.expr.parse" in imported, "no expr import found; the walk is broken"
    nodes = {f"grassmann.expr.{n}" for n in ("Name", "Chain", "Expr")}
    assert sorted(imported & nodes) == []


def test_scene_reads_names_through_expr():
    """What a name is has one owner: scene asks expr's name_kind, and its
    only compiled pattern is the one for integers and their ratios."""
    path = PACKAGE / "scene.py"
    assert "grassmann.expr.name_kind" in _imported_modules(path, "grassmann")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    compiles = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compile"
    ]
    bound = [
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and node.value in compiles
        for target in node.targets
    ]
    assert len(compiles) == 1 and bound == ["_RATIONAL"]


def test_cli_reads_core_names_from_core():
    """A name of core has one path into the CLI: its import from core, and
    not an attribute of the construction module, which imports it too."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cons"
    ]
    assert read, "no cons. attribute found; the walk is broken"
    assert sorted(set(read) & set(core.__all__)) == []


@pytest.mark.parametrize(
    "path",
    [
        *(PACKAGE / name for name in ("cli.py", "expr.py", "oracle.py", "scene.py", "generate.py")),
        ROOT / "tools" / "plot.py",
    ],
    ids=lambda p: p.name,
)
def test_cli_uses_no_private_name_of_another_module(path):
    """The CLI, the expression evaluator, the oracle, the scene format, the
    generator and the plot script drive the package through public names
    only: none imports an underscore-prefixed name or reads one off any
    name other than self or cls.  Dunders are not private."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports, private = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imports += 1
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id not in ("self", "cls")
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert imports, "no imports found; the walk is broken"
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
    path = PACKAGE / "constructions.py"
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
    callers = [p.stem for p in sorted(PACKAGE.glob("*.py")) if _calls(p, "restrict_to_line")]
    assert [c for c in callers if c != "poly"] == ["oracle"]
    imported = _imported_modules(PACKAGE / "cli.py", "grassmann")
    assert "grassmann.oracle" in imported, "no oracle import found; the walk is broken"
    assert sorted(m for m in imported if m.endswith(".restrict_to_line")) == []


def test_constructions_expand_the_cubic_without_the_evaluator():
    """expand_cubic is a closed form: the construction layer imports
    nothing from the expression layer and calls neither the parser nor
    the symbolic evaluator, which stay the engine of the CLI's eval
    command and the tests' reference for the form."""
    path = PACKAGE / "constructions.py"
    imported = _imported_modules(path, "grassmann")
    assert "grassmann.core" in imported, "no core import found; the walk is broken"
    assert sorted(m for m in imported if m == "grassmann.expr" or m.startswith("grassmann.expr.")) == []
    assert not _calls(path, "parse") and not _calls(path, "eval_symbolic")


def test_no_module_bypasses_a_constructor():
    """Every value is built through its class's checking constructor: no
    module under src/grassmann allocates with object.__new__ or writes a
    frozen field with object.__setattr__."""
    bypasses = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
                and node.func.attr in ("__new__", "__setattr__")
            ):
                bypasses.append(f"{path.name}:{node.lineno}")
    assert bypasses == []


# the functions of math that take and return integers only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_the_package_holds_no_float():
    """Every verdict is decided exactly: no module under src/grassmann
    calls float, holds a float constant or imports math, beyond its
    integer functions.  Drawing in floats is the business of
    tools/plot.py."""
    floats = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
                or (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
                or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "math"
                    and any(a.name not in INTEGER_MATH for a in node.names)
                )
            ):
                floats.append(f"{path.name}:{node.lineno}")
    assert floats == []
