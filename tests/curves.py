"""Rational cubic fixtures with a known flex.

Curves of the shape y^2 = x^3 + a4*x + a6 (affine (x, y) embedded as
[1:x:y]) have the flex [0:0:1] at infinity and, for the seeds below,
infinitely many rational points.  New points are bootstrapped with the
polynomial machinery only (the line oracle's chord and tangent third
points), keeping these fixtures independent of the construction code they
are used to test.
"""

from __future__ import annotations

from fractions import Fraction

from grassmann import oracle
from grassmann.constructions import NinePointLabels
from grassmann.core import Point, projectively_equal
from grassmann.poly import HomPoly, evaluate

FLEX = Point(0, 0, 1)

# (a4, a6, affine seed points); every curve has rank >= 1 so the pool
# grows without bound under chords and tangents
CURVES = [
    (0, 17, [(-2, 3), (-1, 4), (2, 5), (4, 9), (8, 23)]),
    (0, -2, [(3, 5)]),
    (0, 2, [(-1, 1)]),
    (0, 3, [(1, 2)]),
    (-7, 10, [(1, 2), (2, 2), (3, 4)]),
    (0, 8, [(1, 3), (2, 4)]),
]


def weierstrass(a4, a6) -> HomPoly:
    """x1^3 + a4*x1*x0^2 + a6*x0^3 - x2^2*x0 as a degree-3 form."""
    return HomPoly(
        3,
        {
            (0, 3, 0): Fraction(1),
            (2, 1, 0): Fraction(a4),
            (3, 0, 0): Fraction(a6),
            (1, 0, 2): Fraction(-1),
        },
    )


def grow_pool(f: HomPoly, seeds, target: int, max_bits: int = 120) -> list[Point]:
    """Affine rational points on f = 0, bootstrapped from the seeds.

    Deterministic breadth-first closure under chords and tangents, with a
    coordinate-size cap so fixture arithmetic stays fast.
    """
    pool: list[Point] = []

    def smallish(pt: Point) -> bool:
        return (
            max(
                abs(c.numerator).bit_length() + c.denominator.bit_length()
                for c in pt.coords
            )
            <= max_bits
        )

    def add(pt: Point) -> None:
        if pt.coords[0] == 0:
            return  # keep the pool affine; the flex is handled separately
        if not smallish(pt):
            return
        if any(projectively_equal(pt, existing) for existing in pool):
            return
        pool.append(pt)

    for x, y in seeds:
        pt = Point(1, x, y)
        assert evaluate(f, pt) == 0, f"seed ({x}, {y}) is not on the curve"
        add(pt)
        add(Point(1, x, -y))

    while len(pool) < target:
        before = len(pool)
        snapshot = list(pool)
        for i in range(len(snapshot)):
            if len(pool) >= target:
                break
            try:
                add(oracle.third(f, snapshot[i], snapshot[i]))
            except (ValueError, AssertionError):
                pass
            for j in range(i + 1, len(snapshot)):
                if len(pool) >= target:
                    break
                try:
                    add(oracle.third(f, snapshot[i], snapshot[j]))
                except (ValueError, AssertionError):
                    pass
        if len(pool) == before:
            raise RuntimeError(f"pool stalled at {len(pool)} points")
    return pool[:target]


def nine_with_anchor(pool, anchor: Point) -> NinePointLabels:
    """First general-position nine-set with the anchor in the first slot."""
    from grassmann.constructions import _general_position_selections

    candidates = [p for p in pool if not projectively_equal(p, anchor)]
    for aux in _general_position_selections([anchor], candidates, 8):
        return NinePointLabels.from_points((anchor, *aux))
    raise RuntimeError("no general-position selection available")
