import random

import pytest

from grassmann.constructions import general_position_violation
from grassmann.generate import random_nine_points, random_scene


@pytest.mark.parametrize("bound", [0, 1])
def test_grid_too_small_for_nine_points_is_rejected(bound):
    # a 1x1 grid has one point and a 3x3 grid always holds a collinear
    # triple, so the search could never finish
    with pytest.raises(ValueError):
        random_nine_points(random.Random(0), bound=bound)


def test_smallest_accepted_grid_gives_general_position():
    labels = random_nine_points(random.Random(0), bound=2)
    pts = labels.as_tuple()
    assert general_position_violation(pts) is None
    assert all(p.x0 == 1 and abs(p.x1) <= 2 and abs(p.x2) <= 2 for p in pts)


def test_negative_count_is_rejected():
    with pytest.raises(ValueError, match="count must be at least 0"):
        random_scene(1, count=-3)
