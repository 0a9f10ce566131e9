"""The fixed Pascal recipe for the conic-line second intersection.

conic_line_second_intersection builds its point by one fixed sequence of
joins and meets (constructions._second_intersection).  The reference below
is the ordering search it replaced: up to 120 orderings of the
degenerate-hexagon construction through the object API, each candidate
checked against the conic fitted by elimination.  Both must give the same
point and the same exception type.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann import constructions as cons
from grassmann.constructions import (
    ConstructionError,
    DegenerateIntermediateError,
    HypothesisViolation,
    conic_line_second_intersection,
    tangent_third_point,
)
from grassmann.core import (
    Line,
    Point,
    canonicalize,
    incidence,
    join,
    meet,
    projectively_equal,
)
from grassmann.poly import RankDeficientError, evaluate, nullspace_fit

from curves import CURVES, grow_pool, weierstrass
import test_constructions
from test_acceptance import _conic_pencil_points

CIRCLE = test_constructions.TestConicLineSecondIntersection.CIRCLE


def reference_second_intersection(five, L, known):
    """The ordering search: the first ordering of four helpers whose
    degenerate-hexagon construction gives a conic point other than
    `known`, else `known` if some ordering reached it."""
    five = list(five)
    if len(five) != 5:
        raise ValueError("exactly five conic points required")
    if L.is_zero or known.is_zero:
        raise HypothesisViolation("the line or the known point is a zero object")
    try:
        conic = nullspace_fit(five, 2)
    except RankDeficientError as exc:
        raise DegenerateIntermediateError(f"rank {exc.rank}") from exc
    if incidence(L, known) != 0:
        raise HypothesisViolation("known point is not on the line")
    if evaluate(conic, known) != 0:
        raise HypothesisViolation("known point is not on the conic")
    helpers = []
    for pt in five:
        if not projectively_equal(pt, known) and not any(
            projectively_equal(pt, h) for h in helpers
        ):
            helpers.append(pt)
    if len(helpers) < 4:
        raise HypothesisViolation("five points are not distinct enough")
    tangent_hit = None
    for quad in itertools.combinations(helpers, 4):
        for pa, pb, pc, pd in itertools.permutations(quad):
            m1 = meet(L, join(pb, pc))
            m3 = meet(join(pa, pb), join(pd, known))
            if m1.is_zero or m3.is_zero or projectively_equal(m1, m3):
                continue
            m2 = meet(join(m1, m3), join(pc, pd))
            if m2.is_zero:
                continue
            lx = join(pa, m2)
            if lx.is_zero or projectively_equal(lx, L):
                continue
            x = meet(lx, L)
            if x.is_zero or evaluate(conic, x) != 0:
                continue
            if projectively_equal(x, known):
                tangent_hit = x
                continue
            return canonicalize(x)
    if tangent_hit is not None:
        return canonicalize(tangent_hit)
    raise DegenerateIntermediateError("conic-line second intersection")


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (ConstructionError, ValueError) as exc:
        return type(exc)
    return result.coords


def assert_agrees(five, L, known):
    expected = outcome(reference_second_intersection, five, L, known)
    assert outcome(conic_line_second_intersection, five, L, known) == expected
    return expected


def lines_through(known, probes):
    for probe in probes:
        L = join(known, probe)
        if not L.is_zero:
            yield L


SMALL_PROBES = [Point(*t) for t in itertools.product(range(-2, 3), repeat=3) if any(t)]


def test_circle_matches_the_search():
    results = set()
    for known in CIRCLE:
        for L in lines_through(known, SMALL_PROBES):
            results.add(assert_agrees(CIRCLE, L, known) == canonicalize(known).coords)
    # secants and tangents (the known point again) both occur
    assert results == {False, True}
    # a sixth point of the circle, not among the five, as the known point
    known = Point(5, 4, 3)
    for L in lines_through(known, SMALL_PROBES[:20]):
        assert isinstance(assert_agrees(CIRCLE, L, known), tuple)
    # and a point off the circle
    for L in lines_through(Point(1, 5, 5), SMALL_PROBES[:20]):
        assert assert_agrees(CIRCLE, L, Point(1, 5, 5)) is HypothesisViolation


def test_pencil_conics_match_the_search():
    rng = random.Random(12)
    for _ in range(100):
        five, _ = _conic_pencil_points(rng, 5)
        known = five[rng.randrange(5)]
        for L in lines_through(known, rng.sample(SMALL_PROBES, 4)):
            assert_agrees(five, L, known)


def test_line_pair_from_the_group_pool():
    five = [Point(1, -2, 3), Point(1, -2, -3), Point(1, -1, 4), Point(729, -1854, 541), Point(0, 0, 1)]
    L, known = Line(7, 2, -1), Point(1, -2, 3)
    assert assert_agrees(five, L, known) == (1, 8, 23)


def test_line_pair_through_its_double_point():
    # x1 = 0 holds the first three, x2 = 0 the first and the last two
    five = [Point(1, 0, 0), Point(1, 0, 1), Point(1, 0, 2), Point(1, 1, 0), Point(1, 2, 0)]
    double = five[0]
    assert assert_agrees(five, Line(0, 1, -1), double) == (1, 0, 0)
    assert assert_agrees(five, Line(0, 1, 0), double) is DegenerateIntermediateError
    for known in five:
        for L in lines_through(known, SMALL_PROBES):
            assert_agrees(five, L, known)
    # the double point and other pair points outside the five
    shifted = [Point(1, 0, 3), *five[1:]]
    for known in (Point(1, 0, 0), Point(1, 0, 7), Point(1, 5, 0), Point(1, 1, 1)):
        for L in lines_through(known, SMALL_PROBES[:30]):
            assert_agrees(shifted, L, known)


@pytest.mark.parametrize(
    "five",
    [
        [CIRCLE[0], CIRCLE[1], CIRCLE[2], CIRCLE[3], Point(2, 2, 0)],
        [CIRCLE[0], CIRCLE[1], CIRCLE[2], CIRCLE[3], Point(0, 0, 0)],
        [Point(1, 0, 0), Point(1, 0, 1), Point(1, 0, 2), Point(1, 0, 3), Point(1, 1, 0)],
    ],
    ids=["duplicate", "zero-point", "four-collinear"],
)
def test_degenerate_five_match_the_search(five):
    known = five[1]
    for L in lines_through(known, SMALL_PROBES[:10]):
        assert assert_agrees(five, L, known) is DegenerateIntermediateError


def test_anchored_selections_match_the_search(monkeypatch):
    """Every call tangent_third_point makes on the first three anchored
    selections at each point of the 40-point group pool."""
    f = weierstrass(0, 17)
    pool = grow_pool(f, CURVES[0][2], 40)
    calls = []
    kernel = cons._second_intersection

    def recorded(five, pair, L, known):
        try:
            result = kernel(five, pair, L, known)
        except ConstructionError as exc:
            calls.append((five, L, known, type(exc)))
            raise
        calls.append((five, L, known, result))
        return result

    monkeypatch.setattr(cons, "_second_intersection", recorded)
    for p in pool:
        fits = []

        def first_three(labels, params):
            fits.append(params)
            if len(fits) < 3:
                raise ConstructionError("on to the next selection")

        cons._refit((p,), [pt for pt in pool if pt != p], first_three)
        for params in fits:
            try:
                tangent_third_point(params)
            except ConstructionError:
                pass
    assert len(calls) > 100
    # the replay goes through the public function, which calls the kernel
    monkeypatch.setattr(cons, "_second_intersection", kernel)
    for five, L, known, result in calls:
        five, L, known = [Point(*t) for t in five], Line(*L), Point(*known)
        expected = assert_agrees(five, L, known)
        assert result == expected


def _smooth_conic_point(matrix, s, t):
    """The image of (s^2, st, t^2) on x0 x2 = x1^2 under the matrix."""
    v = (s * s, s * t, t * t)
    return Point(*(sum(m * c for m, c in zip(row, v)) for row in matrix))


_SMALL = st.integers(-6, 6)


@settings(max_examples=150, deadline=None)
@given(
    matrix=st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=3, max_size=3),
    params=st.lists(st.tuples(_SMALL, _SMALL), min_size=6, max_size=6),
    probe=st.tuples(_SMALL, _SMALL, _SMALL),
    known_index=st.integers(0, 5),
)
def test_recipe_steps_never_vanish_on_a_smooth_conic(matrix, params, probe, known_index):
    """Five distinct points on a smooth conic and a line through a conic
    point (one of the five, or a sixth) never make a recipe step raise, and
    the point lies on the line and on the conic."""
    (a, b, c), (d, e, g), (h, i, j) = matrix
    if a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h) == 0:
        return
    # six distinct parameter points (s : t)
    if any(s == 0 and t == 0 for s, t in params):
        return
    if any(s * t2 == t * s2 for (s, t), (s2, t2) in itertools.combinations(params, 2)):
        return
    six = [_smooth_conic_point(matrix, s, t) for s, t in params]
    five, known = six[:5], six[known_index]
    L = join(known, Point(*probe))
    if L.is_zero:
        return
    result = conic_line_second_intersection(five, L, known)
    conic = nullspace_fit(five, 2)
    assert incidence(L, result) == 0
    assert evaluate(conic, result) == 0
