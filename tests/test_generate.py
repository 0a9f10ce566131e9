import random

import pytest

from grassmann.constructions import general_position_violation
from grassmann.generate import GRID_BOUND, random_nine_points, random_scene


def test_smallest_accepted_grid_gives_general_position():
    labels = random_nine_points(random.Random(0))
    assert general_position_violation(labels) is None
    assert all(p.coords[0] == 1 and max(map(abs, p.coords[1:])) <= GRID_BOUND for p in labels)


def test_negative_count_is_rejected():
    with pytest.raises(ValueError, match="count must be at least 0"):
        random_scene(1, count=-3)
