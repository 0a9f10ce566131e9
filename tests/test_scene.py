from fractions import Fraction

import pytest

from grassmann.scene import SceneError, parse_rational

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
