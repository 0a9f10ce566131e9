import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grassmann.constructions import _clear_anchor_cache
from grassmann.generate import random_nine_points


@pytest.fixture(autouse=True)
def cold_anchor_cache():
    """Every test starts with an empty anchor cache, so a test that wraps
    fit_nine_points counts the same fits in any test order."""
    _clear_anchor_cache()
    yield
    _clear_anchor_cache()


@pytest.fixture
def labels9():
    """One deterministic general-position nine-point configuration."""
    return random_nine_points(random.Random(42))


def seeded_labels(seed: int):
    return random_nine_points(random.Random(seed))
