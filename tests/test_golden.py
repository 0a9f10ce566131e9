"""Byte-exact CLI reports on fixed scenes.

``golden/grid.scene`` is the output of ``grassmann random --seed 1
--count 4`` plus an off-curve point ``j`` and two lines; ``golden/rational.scene``
has non-integral rational points and lines; ``golden/flex.scene`` has nine
points of y^2 = x^3 + 17 whose label ``a`` is a flex; ``golden/tall.scene``
has that flex as ``a`` and the multiples 10P..20P of P = [1:-2:3] (99 to 394
bits), so ``group_add`` runs the anchored chord on tall coordinates.  Each
case runs one command in process and compares its stdout and exit code with
``golden/<case>.txt``.

After an intended report change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from grassmann.cli import main

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
    "pascal": ["pascal", *(a for n in "abcdef" for a in ("--point", n))],
    "eval-symbolic": ["eval", "--expr", "xaAbBcx"],
    "eval-symbolic-triple": ["eval", "--expr", "xab.cd"],
    "eval-numeric": ["eval", "--expr", "ab.cd"],
    "eval-numeric-x": ["eval", "--point", "j", "--expr", "xaAbBcx"],
}

CASES = {
    "random-seed1-count4": ["random", "--seed", "1", "--count", "4"],
    "grid-plot": ["plot", "--in", str(GOLDEN / "grid.scene")],
    # the fifth point repeats the first (b1 = a): the join a b1 is the zero
    # line, so m1 = (a b1).(a1 b) is the zero point
    "grid-pascal-zero-meet": [
        "pascal", *(a for n in "abcdaf" for a in ("--point", n)), "--in", str(GOLDEN / "grid.scene")
    ],
}
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
for _scene in ("grid", "rational"):
    for _name, _argv in _PER_SCENE.items():
        CASES[f"{_scene}-{_name}"] = [*_argv, "--in", str(GOLDEN / f"{_scene}.scene")]


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{out.getvalue()}exit: {code}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(CASES[case]) == expected


def test_grid_scene_is_the_random_scene():
    random_text = (GOLDEN / "random-seed1-count4.txt").read_text(encoding="utf-8")
    scene_text = (GOLDEN / "grid.scene").read_text(encoding="utf-8")
    assert scene_text.startswith(random_text.removesuffix("exit: 0\n"))


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(_run(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} golden reports to {GOLDEN}")
