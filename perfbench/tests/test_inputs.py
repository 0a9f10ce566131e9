"""The scene generator's fit-recipe test agrees with the package's fit.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from grassmann.constructions import (  # noqa: E402
    ConstructionError,
    NinePointLabels,
    fit_nine_points,
)
from grassmann.core import Point  # noqa: E402

from perfbench import inputs  # noqa: E402

# nine grid points in general position on which the fit's line K = yz vanishes
K_VANISHES = [
    (1, 3, 6), (1, 4, -9), (1, -9, 2), (1, 0, -7), (1, -5, -10),
    (1, 7, 5), (1, -9, 3), (1, 3, 8), (1, -5, 6),
]


def _fits(nine) -> bool:
    try:
        fit_nine_points(NinePointLabels.from_points([Point(*t) for t in nine]))
    except ConstructionError:
        return False
    return True


def test_vanishing_step_is_rejected():
    assert inputs._general_position(K_VANISHES)
    assert not _fits(K_VANISHES)
    assert not inputs.fit_recipe_generic(K_VANISHES)


def test_recipe_test_matches_the_fit():
    # a 7 x 7 grid puts many general-position sets in special position
    rng = random.Random(5)
    verdicts = []
    while len(verdicts) < 400:
        nine = list({(1, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(9)})
        if len(nine) == 9 and inputs._general_position(nine):
            verdicts.append((inputs.fit_recipe_generic(nine), _fits(nine)))
    assert all(mine == fit for mine, fit in verdicts)
    assert any(not fit for _, fit in verdicts)
