from fractions import Fraction
from pathlib import Path

import pytest

from grassmann.cli import main
from grassmann.scene import Scene, SceneError, parse_rational

GRID = Path(__file__).parent / "golden" / "grid.scene"

TEXTS = ["+3", "-0", "007", " 4 ", "6/3", "1.5", "1e3", "3_0", "x", "1/0"]


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
