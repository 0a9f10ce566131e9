"""Deterministic random scene generation.

Nine integer-coordinate points are sampled from a bounded grid (embedded
as [1:x:y]) and resampled until no three are collinear.  Extra rational
points on the fitted cubic can be bootstrapped by chord construction: the
third intersection of a chord through two curve points is again rational.
"""

from __future__ import annotations

import random

from .constructions import (
    ConstructionError,
    NinePointLabels,
    general_position_violation,
    third_point_general,
)
from .core import Point, canonicalize, projectively_equal
from .scene import Scene

__all__ = ["random_nine_points", "random_scene", "GRID_BOUND"]

GRID_BOUND = 10


def random_nine_points(rng: random.Random) -> NinePointLabels:
    """Nine distinct general-position points of the grid with coordinates
    in [-GRID_BOUND, GRID_BOUND], deterministic in rng state."""
    while True:
        pts: list[Point] = []
        seen = set()
        while len(pts) < 9:
            x = rng.randint(-GRID_BOUND, GRID_BOUND)
            y = rng.randint(-GRID_BOUND, GRID_BOUND)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            pts.append(Point(1, x, y))
        if general_position_violation(pts) is None:
            return NinePointLabels.from_points(pts)


def random_scene(seed: int, count: int = 0) -> Scene:
    """A scene with nine labelled general-position points.

    `count` extra points named p_1, p_2, ... are generated on the cubic
    through the nine by chaining chord constructions, so the whole scene
    lies on one rational cubic.  A negative count raises a ValueError.
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    rng = random.Random(seed)
    labels = random_nine_points(rng)
    scene = Scene()
    scene.points.update(zip("abcdefghi", labels))

    if count:
        known = list(labels)
        extras: list[Point] = []
        attempts = 0
        while len(extras) < count:
            attempts += 1
            if attempts > 100 * count:
                raise ConstructionError("chord bootstrap failed to produce new points")
            p, q = rng.sample(known, 2)
            try:
                new = third_point_general(known, p, q)
            except ConstructionError:
                continue
            if any(projectively_equal(new, existing) for existing in known):
                continue
            new = canonicalize(new)
            known.append(new)
            extras.append(new)
        for idx, pt in enumerate(extras, start=1):
            scene.points[f"p_{idx}"] = pt
    return scene
