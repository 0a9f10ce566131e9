"""Byte-exact CLI reports on fixed scenes.

``golden/grid.scene`` is the output of ``grassmann random --seed 1
--count 4`` plus an off-curve point ``j`` and two lines; ``golden/rational.scene``
has non-integral rational points and lines; ``golden/flex.scene`` has nine
points of y^2 = x^3 + 17 whose label ``a`` is a flex; ``golden/tall.scene``
has that flex as ``a`` and the multiples 10P..20P of P = [1:-2:3] (99 to 394
bits), so ``group_add`` runs the anchored chord on tall coordinates;
``golden/tall-output.scene`` has the flex ``a``, the multiples 2P..9P of
P = [1:-2:3] as ``b``..``i`` and 110P and 115P as ``p_1`` and ``p_2``
(about 3600 and 3900 digits), so the sum 225P that ``group_add`` prints
has about 15000 digits, past CPython's 4300-digit limit for ``str``;
``golden/conic-line.scene`` is a conic plus a line, a cubic with two
components; ``golden/cusp.scene`` has nine points (t^2, t^3, 1) of the
cuspidal cubic x1^2 x2 = x0^3, a tenth at t = 10 and an off-curve ``j``;
every command runs on it, and its ``group_add`` sum is also checked in
the cusp's additive parameter u = x0/x1.
Each case runs one command in process, the ``grid-plot`` case through
``tools/plot.py``, and compares its stdout and exit code with
``golden/<case>.txt``.

After an intended report change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from grassmann.cli import main
from grassmann.core import Point, projectively_equal
from grassmann.scene import Scene, format_triple, parse_rational

from plot_script import plot

GOLDEN = Path(__file__).parent / "golden"

_PER_SCENE = {
    "fit9": ["fit9"],
    "fit9-verbose": ["fit9", "--verbose"],
    "check10-on": ["check10", "--point", "p_1"],
    "check10-off": ["check10", "--point", "j"],
    "third_point": ["third_point"],
    "third_point-two": ["third_point", "--point", "p_1", "--point", "p_2"],
    "tangent": ["tangent"],
    "tangent_third": ["tangent_third"],
    "is_flex": ["is_flex"],
    "conic_sixth": ["conic_sixth"],
    "group_add": ["group_add", "--no-verify-flex", "--point", "a", "--point", "p_1", "--point", "p_2"],
    "eval-symbolic": ["eval", "--expr", "xaAbBcx"],
    "eval-symbolic-triple": ["eval", "--expr", "xab.cd"],
    "eval-numeric": ["eval", "--expr", "ab.cd"],
    "eval-numeric-x": ["eval", "--point", "j", "--expr", "xaAbBcx"],
}

CASES = {"random-seed1-count4": ["random", "--seed", "1", "--count", "4"]}
# a is a flex of the cubic through the nine points: the flex branches run and pass
_FLEX = {
    "tangent_third": ["tangent_third"],
    "is_flex": ["is_flex"],
    "group_add": ["group_add", "--point", "a", "--point", "b", "--point", "c"],
}
for _name, _argv in _FLEX.items():
    CASES[f"flex-{_name}"] = [*_argv, "--in", str(GOLDEN / "flex.scene")]
# hundreds of bits: group_add fills the anchor cache at p_1 and at a
_TALL = {
    "group_add": ["group_add", "--point", "a", "--point", "p_1", "--point", "p_2"],
    "third_point-two": ["third_point", "--point", "p_1", "--point", "p_2"],
}
for _name, _argv in _TALL.items():
    CASES[f"tall-{_name}"] = [*_argv, "--in", str(GOLDEN / "tall.scene")]
# an answer of thousands of digits: the report writes it at any length
CASES["tall-output-group_add"] = [*_TALL["group_add"], "--in", str(GOLDEN / "tall-output.scene")]
# a conic plus a line: every command but conic_sixth answers on it
_CONIC_LINE = {
    "fit9": ["fit9"],
    "third_point": ["third_point"],
    "third_point-two": ["third_point", "--point", "a", "--point", "b"],
    "tangent": ["tangent"],
    "tangent_third": ["tangent_third"],
    "is_flex": ["is_flex"],
}
for _name, _argv in _CONIC_LINE.items():
    CASES[f"conic-line-{_name}"] = [*_argv, "--in", str(GOLDEN / "conic-line.scene")]
# the cuspidal cubic: every command, on smooth labels
_CUSP = {
    name: _PER_SCENE[name]
    for name in (
        "fit9",
        "fit9-verbose",
        "check10-on",
        "check10-off",
        "third_point",
        "tangent",
        "tangent_third",
        "is_flex",
        "conic_sixth",
    )
}
_CUSP["third_point-two"] = ["third_point", "--point", "p_1", "--point", "b"]
# identity a: the sum of p_1 and b, which the cusp's parameter checks
_CUSP["group_add"] = ["group_add", "--no-verify-flex", "--point", "a", "--point", "p_1", "--point", "b"]
for _name, _argv in _CUSP.items():
    CASES[f"cusp-{_name}"] = [*_argv, "--in", str(GOLDEN / "cusp.scene")]
for _scene in ("grid", "rational"):
    for _name, _argv in _PER_SCENE.items():
        CASES[f"{_scene}-{_name}"] = [*_argv, "--in", str(GOLDEN / f"{_scene}.scene")]


# each case with the main that runs it
RUNS = {name: (main, argv) for name, argv in CASES.items()}
RUNS["grid-plot"] = (plot.main, ["--in", str(GOLDEN / "grid.scene")])


def _run(entry, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(argv)
    return f"{out.getvalue()}exit: {code}\n"


@pytest.mark.parametrize("case", sorted(RUNS))
def test_report_is_byte_identical(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(*RUNS[case]) == expected


def test_cusp_group_add_adds_the_parameter():
    """On the cusp x1^2 x2 = x0^3 the smooth points form the additive
    group in u = x0/x1, so the sum of p_1 and b with identity a has
    u = u(p_1) + u(b) - u(a) = 1/10 + 1/2 - 1 = -2/5."""
    u = {name: Fraction(p.coords[0], p.coords[1]) for name, p in Scene.load(GOLDEN / "cusp.scene").points.items()}
    report = (GOLDEN / "cusp-group_add.txt").read_text(encoding="utf-8")
    (line,) = (row for row in report.splitlines() if row.startswith("output point sum = "))
    x0, x1, _ = (int(c) for c in line.removeprefix("output point sum = [").removesuffix("]").split(":"))
    assert Fraction(x0, x1) == u["p_1"] + u["b"] - u["a"] == Fraction(-2, 5)


def multiple(n: int) -> Point:
    """nP for P = (-2, 3) on y^2 = x^3 + 17, as the point [1:x:y], by
    doubling and adding in affine coordinates with exact fractions."""

    def add(u, v):
        (x1, y1), (x2, y2) = u, v
        slope = 3 * x1 * x1 / (2 * y1) if u == v else (y2 - y1) / (x2 - x1)
        x3 = slope * slope - x1 - x2
        return x3, slope * (x1 - x3) - y1

    total, power = None, (Fraction(-2), Fraction(3))
    while True:
        if n & 1:
            total = power if total is None else add(total, power)
        n >>= 1
        if not n:
            return Point(1, *total)
        power = add(power, power)


def test_tall_output_scene_and_sum_are_multiples_of_P():
    """The tall-output scene holds 2P..9P, 110P and 115P, and the sum its
    report prints is 225P, with more digits than CPython converts with
    int() or str(); it writes and reads back through a scene
    unchanged."""
    points = Scene.load(GOLDEN / "tall-output.scene").points
    for name, n in (*zip("bcdefghi", range(2, 10)), ("p_1", 110), ("p_2", 115)):
        assert projectively_equal(points[name], multiple(n)), name
    report = (GOLDEN / "tall-output-group_add.txt").read_text(encoding="utf-8")
    (line,) = (row for row in report.splitlines() if row.startswith("output point sum = "))
    digits = line.removeprefix("output point sum = [").removesuffix("]").split(":")
    assert min(len(d.lstrip("-")) for d in digits) > 4300
    x0, x1, x2 = (parse_rational(d) for d in digits)
    assert projectively_equal(Point(x0, x1, x2), multiple(225))
    scene = Scene(points={"s": Point(x0, x1, x2)})
    assert Scene.parse(scene.serialize()).points["s"].coords == (x0, x1, x2)
    assert format_triple(scene.points["s"]) == "[" + ":".join(digits) + "]"


def test_grid_scene_is_the_random_scene():
    random_text = (GOLDEN / "random-seed1-count4.txt").read_text(encoding="utf-8")
    scene_text = (GOLDEN / "grid.scene").read_text(encoding="utf-8")
    assert scene_text.startswith(random_text.removesuffix("exit: 0\n"))


if __name__ == "__main__":
    for name, run in sorted(RUNS.items()):
        (GOLDEN / f"{name}.txt").write_text(_run(*run), encoding="utf-8")
    print(f"wrote {len(RUNS)} golden reports to {GOLDEN}")
