import random
from fractions import Fraction
from pathlib import Path

import pytest

from grassmann.cli import main
from grassmann.core import Point
from grassmann.scene import Scene, SceneError, format_triple, parse_rational

GRID = Path(__file__).parent / "golden" / "grid.scene"

TEXTS = ["+3", "-0", "007", " 4 ", "6/3", "-6/4", "+0/5", "3 / 4", "1.5", "1e3", "3_0", "x", "1/0"]


@pytest.mark.parametrize("text", TEXTS)
def test_parse_rational_agrees_with_fraction(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(SceneError) as err:
            parse_rational(text)
        assert str(err.value) == f"bad rational {text!r}: {exc}"
        return
    got = parse_rational(text)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)


@pytest.mark.parametrize("entry", ["point z = 0, 0, 0", "line Z = 0, 0/7, -0"])
def test_a_zero_point_or_line_is_refused(entry, tmp_path, capsys):
    """The zero triple is no projective point or line: the scene parser
    refuses it, so a command on such a scene exits 3."""
    with pytest.raises(SceneError, match="line 2: the zero triple is not a point or a line"):
        Scene.parse(f"format: 1\n{entry}\n")
    path = tmp_path / "zero.scene"
    path.write_text(GRID.read_text() + entry + "\n")
    assert main(["check10", "--in", str(path), "--point", "p_1"]) == 3
    assert "the zero triple" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("point a = 1, 2", "line 2: expected three comma-separated rationals, got '1, 2'"),
        ("line A = 1, x, 2", "line 2: bad rational ' x'"),
    ],
)
def test_a_malformed_triple_names_its_line(entry, message):
    with pytest.raises(SceneError) as err:
        Scene.parse(f"format: 1\n{entry}\n")
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("viewport = 0, x, -5, 5", "line 2: bad rational ' x'"),
        ("viewport = 0, 1/0, -5, 5", "line 2: bad rational ' 1/0'"),
        ("viewport = 0, 1, -5", "line 2: viewport needs four rationals"),
        pytest.param(
            "viewport = -1, 1, -1, 1\nviewport = -2, 2, -2, 2",
            "line 3: duplicate viewport",
            id="duplicate",
        ),
    ],
)
def test_a_malformed_viewport_names_its_line(entry, message):
    with pytest.raises(SceneError) as err:
        Scene.parse(f"format: 1\n{entry}\n")
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "entry, key",
    [("expr cubic = (xaAa_1.xbBkCb_1.xc)=0", "expr cubic"), ("colour = red", "colour")],
)
def test_an_unknown_entry_names_its_line(entry, key):
    with pytest.raises(SceneError) as err:
        Scene.parse(f"format: 1\n{entry}\n")
    assert str(err.value) == f"line 2: unknown entry {key!r}"


def horner(digits: str) -> int:
    """The int of a string of decimal digits, one digit at a time."""
    n = 0
    for d in digits:
        n = 10 * n + "0123456789".index(d)
    return n


@pytest.mark.parametrize("length", [1, 600, 601, 4300, 4301, 12345])
def test_integers_of_any_length_convert_both_ways(length):
    """Decimal text of any length, also past CPython's 4300-digit limit
    for int() and str(), reads and writes exactly: parse_rational reads
    an integer (with leading zeros or a sign) and a ratio, and
    format_triple and a scene write them back."""
    rng = random.Random(length)
    digits = rng.choice("123456789") + "".join(rng.choice("0123456789") for _ in range(length - 1))
    n = horner(digits)
    assert parse_rational(digits) == n and parse_rational(f" -{digits} ") == -n
    assert parse_rational("0" * 5000 + digits) == n
    assert parse_rational(f"{digits}/{digits}1") == Fraction(n, 10 * n + 1)
    assert format_triple(Point(1, n, -n)) == f"[1:{digits}:-{digits}]"
    scene = Scene(points={"p": Point(n, -1, Fraction(n, 10 * n + 1))})
    text = scene.serialize()
    assert text.startswith(f"format: 1\npoint p = {digits}, -1, {digits}/{digits}1\n")
    assert Scene.parse(text).points["p"].coords == (n, -1, Fraction(n, 10 * n + 1))
