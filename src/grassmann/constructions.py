"""Straightedge constructions on plane cubic curves.

A cubic is carried by nine parameters: six points a, a1, b, b1, c, k and
three concurrent lines A, B, C.  The curve is the locus of points x for
which the three chain lines

    L = x a A a1,   M = x b B k C b1,   R = x c

are concurrent (their bracket vanishes), including every x at which one of
the chains degenerates.  This module builds those parameters through nine
given points, decides whether a tenth point is on the curve, intersects
chords, tangents and conics with the curve, tests for flexes, and computes
the chord-and-tangent group law.  Every construction is a finite sequence
of joins and meets over exact rationals, and each public operation
verifies its own output against exact incidence checks.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

from . import oracle
from .core import (
    KindError,
    Line,
    Point,
    Scalar,
    ZERO_LINE,
    _canonical,
    _cross,
    _dot,
    bracket,
    canonicalize,
    incidence,
    join,
    meet,
    projectively_equal,
)
from .expr import Environment, eval_symbolic, parse
from .poly import HomPoly, RankDeficientError, evaluate as poly_evaluate, nullspace_fit

__all__ = [
    "ConstructionError",
    "GeneralPositionViolation",
    "DegenerateIntermediateError",
    "InsufficientPointsError",
    "HypothesisViolation",
    "FlexVerificationError",
    "CoincidenceWarning",
    "SingularPointWarning",
    "CubicParams",
    "NinePointLabels",
    "NinePointFit",
    "SecondIntersection",
    "TangentThirdResult",
    "SixthPointResult",
    "CUBIC_EXPRESSION",
    "CONIC_EXPRESSION",
    "fit_nine_points",
    "fit_nine_points_trace",
    "expand_cubic",
    "evaluate_cubic",
    "check_ten_points",
    "third_point_on_chord_ab",
    "third_point_general",
    "tangent_at_a",
    "tangent_third_point",
    "is_flex",
    "tangent_third_via_89",
    "conic_cubic_sixth",
    "conic_cubic_sixth_via_89",
    "group_add",
    "tangent_third_at",
    "conic_five_points",
    "pascal_points",
    "conic_line_second_intersection",
]


class ConstructionError(Exception):
    """Base class for failures of the straightedge constructions."""


class GeneralPositionViolation(ConstructionError):
    """Three of the given points are collinear (or coincide)."""

    def __init__(self, names, points):
        self.names = tuple(names)
        self.points = tuple(points)
        super().__init__(f"points {', '.join(self.names)} are collinear")


class DegenerateIntermediateError(ConstructionError):
    """A construction step produced a zero object."""

    def __init__(self, step: str):
        self.step = step
        super().__init__(f"degenerate intermediate at step {step!r}")


class InsufficientPointsError(ConstructionError):
    """No admissible auxiliary point selection exists."""


class HypothesisViolation(ConstructionError):
    """The inputs violate an explicit hypothesis of the construction."""


class FlexVerificationError(ConstructionError):
    """The designated identity point failed the flex test."""


class CoincidenceWarning(UserWarning):
    """A constructed point coincides with one of the defining points."""


class SingularPointWarning(UserWarning):
    """The base point is singular; the tangent construction is not unique."""


# canonical expression texts (accepted verbatim by the parser and the CLI)
CUBIC_EXPRESSION = "(xaAa_1.xbBkCb_1.xc)"
CONIC_EXPRESSION = "xaAbBcx"

_CUBIC_AST = parse(CUBIC_EXPRESSION)

def _chain(start, *objs):
    """A chain of joins and meets on coordinate triples, folded left to
    right: _chain(x, b, B) is the triple of xbB."""
    for obj in objs:
        start = _cross(start, obj)
    return start


def _tuple_step(name: str, coords: tuple) -> tuple:
    """A named construction step on a coordinate triple: a zero triple
    raises, anything else is reduced to its canonical integer form."""
    if not any(coords):
        raise DegenerateIntermediateError(name)
    return _canonical(coords)


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class CubicParams:
    """Six points and three concurrent lines defining a cubic."""

    a: Point
    a1: Point
    b: Point
    b1: Point
    c: Point
    k: Point
    A: Line
    B: Line
    C: Line

    def validate(self) -> None:
        for name in ("a", "a1", "b", "b1", "c", "k", "A", "B", "C"):
            if getattr(self, name).is_zero:
                raise HypothesisViolation(f"parameter {name} is a zero object")
        lines = {"A": self.A.coords, "B": self.B.coords, "C": self.C.coords}
        for m, n in itertools.combinations(lines, 2):
            # two nonzero lines coincide exactly when their meet is zero
            if not any(_cross(lines[m], lines[n])):
                raise HypothesisViolation(f"lines {m} and {n} coincide")
        if _dot(lines["A"], _cross(lines["B"], lines["C"])) != 0:
            raise HypothesisViolation("lines A, B, C are not concurrent")

    def environment(self) -> Environment:
        return Environment(
            {
                "a": self.a,
                "a_1": self.a1,
                "b": self.b,
                "b_1": self.b1,
                "c": self.c,
                "k": self.k,
                "A": self.A,
                "B": self.B,
                "C": self.C,
            }
        )


@dataclass(frozen=True)
class NinePointLabels:
    """Nine labelled points in general position (no three collinear)."""

    a: Point
    b: Point
    c: Point
    d: Point
    e: Point
    f: Point
    g: Point
    h: Point
    i: Point

    _NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "i")
    # set only by _from_proven_selection
    _proven = False

    @classmethod
    def from_points(cls, points) -> "NinePointLabels":
        pts = list(points)
        if len(pts) != 9:
            raise ValueError("exactly nine points required")
        return cls(*pts)

    @classmethod
    def _from_proven_selection(cls, points) -> "NinePointLabels":
        """Labels for a selection that _general_position_selections yielded.

        That search has already shown every triple non-collinear, so
        validate() does not run the 84-bracket check again.
        """
        labels = cls.from_points(points)
        object.__setattr__(labels, "_proven", True)
        return labels

    def as_tuple(self) -> tuple[Point, ...]:
        return tuple(getattr(self, n) for n in self._NAMES)

    def labelled(self) -> dict[str, Point]:
        return {n: getattr(self, n) for n in self._NAMES}

    def validate(self) -> None:
        if self._proven:
            return
        viol = general_position_violation(self.as_tuple(), self._NAMES)
        if viol is not None:
            raise GeneralPositionViolation(*viol)


def general_position_violation(points, names=None):
    """First collinear (or coincident) triple, as (names, points), else None.

    Triples are visited in combinations order.  The bracket [p, q, r] is
    the incidence of the line pq with r, so each pair line is built once
    and serves every later third point.  Three lines are checked for
    concurrency the same way.
    """
    pts = list(points)
    if names is None:
        names = [str(i) for i in range(len(pts))]
    if not (
        all(isinstance(p, Point) for p in pts) or all(isinstance(p, Line) for p in pts)
    ):
        raise KindError("bracket needs three points or three lines")
    coords = [p.coords for p in pts]
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n - 1):
            line = _cross(coords[i], coords[j])
            for k in range(j + 1, n):
                if _dot(line, coords[k]) == 0:
                    return ((names[i], names[j], names[k]), (pts[i], pts[j], pts[k]))
    return None


@dataclass(frozen=True)
class NinePointFit:
    """Cubic parameters through nine points, with the construction's
    intermediate objects kept for verification."""

    params: CubicParams
    g1: Point
    g2: Point
    h1: Point
    h2: Point
    i1: Point
    i2: Point
    y: Point
    z: Point
    K: Line


# ---------------------------------------------------------------------------
# the nine-point fit


def _fit(pts: NinePointLabels) -> tuple[CubicParams, tuple]:
    """The nine-point fit on coordinate triples: the checked parameters
    and the intermediate triples (g1, g2, h1, h2, i1, i2, y, z, K).

    Recipe: A = de, B = ef, a1 = af.cd; for each of g, h, i the pair
    p1 = paAa1.pc and p2 = pbB; C = e i1; y = h1g1Cg2.fh1 and
    z = g1h1Ch2.fg1; K = yz; k = K.i1i2; b1 = kg2Cg1.kf.
    """
    pts.validate()
    a, b, c, d, e, f, g, h, i = (p.coords for p in pts.as_tuple())
    # on coordinate triples, every join and meet is one cross product
    cross, step = _cross, _tuple_step

    A = step("A=de", cross(d, e))
    B = step("B=ef", cross(e, f))
    a1 = step("a1=af.cd", cross(cross(a, f), cross(c, d)))

    def derived_pair(p, label):
        p1 = step(
            f"{label}1={label}aAa1.{label}c",
            cross(cross(cross(cross(p, a), A), a1), cross(p, c)),
        )
        p2 = step(f"{label}2={label}bB", cross(cross(p, b), B))
        return p1, p2

    g1, g2 = derived_pair(g, "g")
    h1, h2 = derived_pair(h, "h")
    i1, i2 = derived_pair(i, "i")

    C = step("C=ei1", cross(e, i1))
    y = step("y=h1g1Cg2.fh1", cross(cross(cross(cross(h1, g1), C), g2), cross(f, h1)))
    z = step("z=g1h1Ch2.fg1", cross(cross(cross(cross(g1, h1), C), h2), cross(f, g1)))
    K = step("K=yz", cross(y, z))
    k = step("k=K.i1i2", cross(K, cross(i1, i2)))
    b1 = step("b1=kg2Cg1.kf", cross(cross(cross(cross(k, g2), C), g1), cross(k, f)))

    params = CubicParams(
        a=pts.a,
        a1=Point(*a1),
        b=pts.b,
        b1=Point(*b1),
        c=pts.c,
        k=Point(*k),
        A=Line(*A),
        B=Line(*B),
        C=Line(*C),
    )
    params.validate()
    return params, (g1, g2, h1, h2, i1, i2, y, z, K)


def fit_nine_points_trace(pts: NinePointLabels) -> NinePointFit:
    """Parameter construction through nine general-position points, with
    the intermediate objects kept for verification (recipe: see _fit)."""
    params, (*points, K) = _fit(pts)
    return NinePointFit(params, *(Point(*t) for t in points), Line(*K))


def fit_nine_points(pts: NinePointLabels) -> CubicParams:
    """Cubic parameters whose curve passes through the nine given points."""
    return _fit(pts)[0]


def evaluate_cubic(params: CubicParams, x: Point) -> Scalar:
    """Exact value of the defining bracket at x; zero means x is on the curve."""
    if not isinstance(x, Point):
        raise KindError("x must be bound to a point")
    for name in ("a", "a1", "b", "b1", "c", "k", "A", "B", "C"):
        kind = Point if name.islower() else Line
        if not isinstance(getattr(params, name), kind):
            raise KindError(f"parameter {name} must be a {kind.__name__.lower()}")
    return _cubic_value(params, x.coords)


def _cubic_value(params: CubicParams, x: tuple) -> Scalar:
    """CUBIC_EXPRESSION at the coordinate triple x, folded left to right as
    eval_numeric folds it: L = xaAa1, M = xbBkCb1, then (L.M) against xc."""
    L = _chain(x, params.a.coords, params.A.coords, params.a1.coords)
    M = _chain(
        x, params.b.coords, params.B.coords, params.k.coords, params.C.coords, params.b1.coords
    )
    return _dot(_cross(L, M), _cross(x, params.c.coords))


def expand_cubic(params: CubicParams) -> HomPoly:
    """The degree-3 form of the curve, expanded symbolically in x."""
    return eval_symbolic(_CUBIC_AST, params.environment())


def check_ten_points(pts: NinePointLabels, p10: Point) -> bool:
    """Whether a tenth point lies on the cubic through the nine; exact."""
    params = fit_nine_points(pts)
    return evaluate_cubic(params, p10) == 0


# ---------------------------------------------------------------------------
# chords


def third_point_on_chord_ab(params: CubicParams) -> Point:
    """Third intersection of the line through a and b with the cubic.

    Formula: with p = abAa1.abBkCb1, the point is pc.ab.  The result can
    coincide with a or b exactly when the chord is tangent there.
    """
    ab = _cross(params.a.coords, params.b.coords)
    if not any(ab):
        raise DegenerateIntermediateError("ab")
    l1 = _chain(ab, params.A.coords, params.a1.coords)
    l2 = _chain(ab, params.B.coords, params.k.coords, params.C.coords, params.b1.coords)
    p = _tuple_step("p=abAa1.abBkCb1", _cross(l1, l2))
    y = _tuple_step("y=pc.ab", _cross(_cross(p, params.c.coords), ab))
    if _cubic_value(params, y) != 0:
        raise ConstructionError("chord point failed the exact membership check")
    return Point(*y)


class _KnownPool(dict):
    """The known points, deduplicated once: an ordered mapping from each
    canonical coordinate key to the first input point with that key.  Zero
    points are dropped."""

    def __init__(self, points):
        super().__init__()
        for p in points:
            if not p.is_zero:
                self.setdefault(_canonical(p.coords), p)


def _known_pool(known) -> _KnownPool:
    """`known` as a pool; a pool is returned unchanged."""
    return known if type(known) is _KnownPool else _KnownPool(known)


def _general_position_selections(fixed, candidates, count):
    """Deterministic general-position completions of `fixed` from `candidates`.

    Greedy first-fit in input order; further selections come from rotating
    the starting offset (and scanning in reverse), so callers can retry
    after a degenerate fit.  No three points of `fixed` plus a yielded
    selection are collinear: a candidate is taken only when it lies on no
    line joining two points already taken, and the incidence of the line
    uv with x is exactly the bracket [u, v, x].  The search runs on
    coordinate triples and yields the candidate points themselves.
    """
    fixed_coords = [u.coords for u in fixed]
    fixed_lines = [_cross(u, v) for u, v in itertools.combinations(fixed_coords, 2)]
    seen = set()
    orders = [list(candidates), list(reversed(candidates))]
    for order in orders:
        n = len(order)
        order_coords = [pt.coords for pt in order]
        for start in range(n):
            chosen: list[Point] = []
            taken = list(fixed_coords)
            lines = list(fixed_lines)
            for idx in range(n):
                j = (start + idx) % n
                cand = order_coords[j]
                x0, x1, x2 = cand
                for l0, l1, l2 in lines:
                    if l0 * x0 + l1 * x1 + l2 * x2 == 0:
                        break
                else:
                    lines += [_cross(u, cand) for u in taken]
                    taken.append(cand)
                    chosen.append(order[j])
                    if len(chosen) == count:
                        break
            if len(chosen) == count:
                key = tuple(id(pt) for pt in chosen)
                if key not in seen:
                    seen.add(key)
                    yield chosen


def _refit(anchors, candidates, construct):
    """`construct` applied to a cubic refitted through the anchors.

    Completes `anchors` to nine points in general position from
    `candidates` (see _general_position_selections), fits the cubic with
    the anchors in the first label slots and returns construct(params).
    A selection whose fit or construction raises ConstructionError is
    skipped for the next one.
    """
    count = 9 - len(anchors)
    if len(candidates) < count:
        raise InsufficientPointsError(f"fewer than {count} usable auxiliary points")
    for aux in _general_position_selections(anchors, candidates, count):
        try:
            labels = NinePointLabels._from_proven_selection((*anchors, *aux))
            return construct(fit_nine_points(labels))
        except ConstructionError:
            continue
    raise InsufficientPointsError("no admissible auxiliary selection found")


def third_point_general(known, p: Point, q: Point) -> Point:
    """Third intersection of line pq with the cubic through the known points.

    `known` is a list of points or a pool, the dict from canonical key to
    point that group_add builds once from one; points that are
    projectively equal count once, by canonical key.  Selects seven
    auxiliary points off the line pq so that (p, q, aux) is in general
    position, refits the cubic with p and q in the anchor slots, and
    applies the chord formula.  The auxiliary selection is the first
    admissible one in input order, so results are reproducible; the
    returned point does not depend on the selection.
    """
    if p.is_zero or q.is_zero:
        raise HypothesisViolation("a chord endpoint is the zero point")
    pq = _cross(p.coords, q.coords)
    if not any(pq):
        raise ValueError("chord endpoints must be distinct")
    # points on pq, p and q among them, never complete a general-position set
    candidates = [pt for pt in _known_pool(known).values() if _dot(pq, pt.coords) != 0]
    return _refit((p, q), candidates, third_point_on_chord_ab)


# ---------------------------------------------------------------------------
# tangents


def tangent_at_a(params: CubicParams) -> Line:
    """Tangent line to the cubic at the parameter point a.

    Formula: (abBkCb1.ac)a1Aa.  At a singular point every branch of the
    formula degenerates; ZERO_LINE is returned together with a
    :class:`SingularPointWarning` instead of raising.  A zero step at a
    smooth point raises DegenerateIntermediateError naming that step.
    """
    try:
        return Line(*_tangent_with_contact(params)[0])
    except DegenerateIntermediateError:
        f = expand_cubic(params)
        if f.is_zero or oracle.gradient_tangent(f, params.a).is_zero:
            warnings.warn(
                "cubic is singular at a; the tangent construction degenerates",
                SingularPointWarning,
                stacklevel=2,
            )
            return ZERO_LINE
        raise


def _tangent_with_contact(params: CubicParams) -> tuple[tuple, tuple]:
    """The tangent at a and the point q where it crosses the line A, as
    coordinate triples."""
    a, b, c = params.a.coords, params.b.coords, params.c.coords
    l2 = _chain(a, b, params.B.coords, params.k.coords, params.C.coords, params.b1.coords)
    p = _tuple_step("p=abBkCb1.ac", _cross(l2, _cross(a, c)))
    q = _tuple_step("q=pa1A", _chain(p, params.a1.coords, params.A.coords))
    tangent = _tuple_step("tangent=aq", _cross(a, q))
    return tangent, q


# ---------------------------------------------------------------------------
# conics


@dataclass(frozen=True)
class SecondIntersection:
    point: Point
    is_tangent: bool


def conic_line_second_intersection(five, L: Line, known: Point) -> SecondIntersection:
    """Second intersection of a line with the conic through five points.

    `known` must lie on both the line and the conic.  The point is built
    from joins and meets only (the degenerate-hexagon construction on the
    five points), then checked exactly against the conic fitted through
    the five points by elimination.  When the line is tangent at `known`
    the construction reproduces `known`, flagged in the result.
    """
    five = list(five)
    if len(five) != 5:
        raise ValueError("exactly five conic points required")
    if L.is_zero or known.is_zero:
        raise HypothesisViolation("the line or the known point is a zero object")
    try:
        conic = nullspace_fit(five, 2)
    except RankDeficientError as exc:
        raise DegenerateIntermediateError(
            f"five points do not determine a unique conic (rank {exc.rank})"
        ) from exc
    if incidence(L, known) != 0:
        raise HypothesisViolation("known point is not on the line")
    if poly_evaluate(conic, known) != 0:
        raise HypothesisViolation("known point is not on the conic")

    known_key = canonicalize(known).coords
    helpers = [pt for key, pt in _known_pool(five).items() if key != known_key]
    if len(helpers) < 4:
        raise HypothesisViolation("five points are not distinct enough")

    def candidates():
        for quad in itertools.combinations(helpers, 4):
            yield from itertools.permutations(quad)

    tangent_hit = None
    for pa, pb, pc, pd in candidates():
        m1 = meet(L, join(pb, pc))
        m3 = meet(join(pa, pb), join(pd, known))
        if m1.is_zero or m3.is_zero or projectively_equal(m1, m3):
            continue
        axis = join(m1, m3)
        m2 = meet(axis, join(pc, pd))
        if m2.is_zero:
            continue
        lx = join(pa, m2)
        if lx.is_zero or projectively_equal(lx, L):
            continue
        x = meet(lx, L)
        if x.is_zero or poly_evaluate(conic, x) != 0:
            continue
        if projectively_equal(x, known):
            tangent_hit = x
            continue
        return SecondIntersection(canonicalize(x), False)
    if tangent_hit is not None:
        return SecondIntersection(canonicalize(tangent_hit), True)
    raise DegenerateIntermediateError("conic-line second intersection")


def conic_five_points(a: Point, b: Point, c: Point, A: Line, B: Line) -> list[Point]:
    """Five points on the conic xaAbBcx = 0.

    Hypotheses: a, b, c not collinear, none of them on A or B, and A, B
    distinct.  The conic then passes through a, c, the meet AB, the point
    abB (chord ab crossed with B) and the point bcA (chord bc crossed
    with A); all five memberships are exact.
    """
    if bracket(a, b, c) == 0:
        raise HypothesisViolation("a, b, c are collinear")
    for name, pt in (("a", a), ("b", b), ("c", c)):
        if incidence(A, pt) == 0:
            raise HypothesisViolation(f"{name} lies on A")
        if incidence(B, pt) == 0:
            raise HypothesisViolation(f"{name} lies on B")
    if projectively_equal(A, B):
        raise HypothesisViolation("A and B coincide")
    points = [
        a,
        c,
        meet(A, B),
        meet(join(a, b), B),
        meet(join(b, c), A),
    ]
    for pt in points:
        if pt.is_zero:
            raise DegenerateIntermediateError("conic point construction")
    return [canonicalize(pt) for pt in points]


def pascal_points(a, b, c, a1, b1, c1) -> tuple[Point, Point, Point]:
    """The three cross-joint meets of the hexagon a b1 c a1 b c1.

    When the six points lie on a common conic the three meets are
    collinear.  Degenerate hexagons propagate zero objects instead of
    raising.
    """
    m1 = meet(join(a, b1), join(a1, b))
    m2 = meet(join(a, c1), join(a1, c))
    m3 = meet(join(b, c1), join(b1, c))
    return (m1, m2, m3)


# ---------------------------------------------------------------------------
# tangent third point (and flexes)


@dataclass(frozen=True)
class TangentThirdResult:
    w: Point
    tangent: Line
    q: Point
    y: Point
    conic_points: tuple[Point, ...]
    is_flex_case: bool


def tangent_third_point(params: CubicParams) -> TangentThirdResult:
    """Third intersection of the tangent at a with the cubic.

    The tangent aq (with q = (abBkCb1.ac)a1A) meets the auxiliary conic
    (qa1.xc.xbBkCb1) = 0 at a and at the wanted point w, which lies on
    the cubic.  Five points of that conic are built by joins and meets,
    and the five-point second-intersection step along the tangent gives
    w.  That step flags a tangent line only when the point it finds is
    a, so is_flex_case holds exactly when w is a.

    The conic points besides a, b and c come from one lemma.  For a
    point m, let lambda = mb1CkBb, that is m2 b with m1 = mb1.C and
    m2 = m1k.B.  For x on lambda other than b, xb is lambda, and the
    chain xbBkCb1 undoes lambda's construction step by step:
    lambda.B = m2, m2k = m1k, m1k.C = m1, m1b1 = mb1.  So for
    x = mc.mb1CkBb the lines xc and xbBkCb1 both pass through m, and
    when m lies on qa1 the three lines of the auxiliary bracket meet at
    m: x is on the conic.  With m = b1c.qa1 the point x is
    y = b1cCkBb.b1c (xc is then b1c itself); m = q and m = a1 give the
    points x5 = qc.qb1CkBb and a1c.a1b1CkBb.  The fourth and fifth conic
    points are the first two of y, x5(m=q), x5(m=a1) that are nonzero and
    differ from a, b, c and each other (y can collapse onto b or c).  All
    five are checked against the conic exactly.
    """
    a, b, c = params.a.coords, params.b.coords, params.c.coords
    b1, a1 = params.b1.coords, params.a1.coords
    C, k, B = params.C.coords, params.k.coords, params.B.coords
    tangent, q = _tangent_with_contact(params)
    y = _cross(_chain(b1, c, C, k, B, b), _cross(b1, c))
    if any(y):
        y = _canonical(y)

    def lemma_points():
        yield "y=b1cCkBb.b1c", y
        for name, m in (("x5=qc.qb1CkBb", q), ("x5=a1c.a1b1CkBb", a1)):
            yield name, _cross(_cross(m, c), _chain(m, b1, C, k, B, b))

    base = {"a": a, "b": b, "c": c}
    for name, x in lemma_points():
        if any(x) and all(any(_cross(x, pt)) for pt in base.values()):
            base[name] = _canonical(x)
            if len(base) == 5:
                break
    else:
        raise DegenerateIntermediateError(name)

    qa1 = _tuple_step("auxiliary conic", _cross(q, a1))
    for name, x in base.items():
        if _dot(_cross(qa1, _cross(x, c)), _chain(x, b, B, k, C, b1)) != 0:
            raise ConstructionError(f"auxiliary conic misses {name}")

    conic_points = tuple(Point(*x) for x in base.values())
    tangent = Line(*tangent)
    second = conic_line_second_intersection(conic_points, tangent, params.a)
    w = second.point
    if evaluate_cubic(params, w) != 0:
        raise ConstructionError("tangent third point failed the membership check")
    return TangentThirdResult(
        w=w,
        tangent=tangent,
        q=Point(*q),
        y=Point(*y),
        conic_points=conic_points,
        is_flex_case=second.is_tangent,
    )


def is_flex(params: CubicParams) -> bool:
    """Whether the parameter point a is a flex: the tangent's third
    intersection point falls back on a itself."""
    return tangent_third_point(params).is_flex_case


def tangent_third_via_89(known, a: Point) -> Point:
    """Tangent third point at a, by the two-secant construction.

    Chords through a and two auxiliary points p1, q1 give p2 and q2; the
    chords p1q1 and p2q2 give r1 and r2, and the chord r1r2 gives the
    result.
    """
    if a.is_zero:
        raise HypothesisViolation("the tangent point is the zero point")
    pool = _known_pool(known)
    a_key = canonicalize(a).coords
    others = [pt for key, pt in pool.items() if key != a_key]
    if len(others) < 2:
        raise InsufficientPointsError("need two auxiliary points")
    for p1, q1 in itertools.combinations(others, 2):
        try:
            working = list(pool.values())
            p2 = third_point_general(working, p1, a)
            working.append(p2)
            q2 = third_point_general(working, q1, a)
            working.append(q2)
            r1 = third_point_general(working, p1, q1)
            working.append(r1)
            r2 = third_point_general(working, p2, q2)
            working.append(r2)
            return third_point_general(working, r1, r2)
        except (ConstructionError, ValueError):
            continue
    raise InsufficientPointsError("no admissible secant pair found")


# ---------------------------------------------------------------------------
# conic meets cubic


@dataclass(frozen=True)
class SixthPointResult:
    z: Point
    y: Point
    params: CubicParams
    coincides_with: str | None


def _sixth_conic_value(params: CubicParams, x: tuple) -> Scalar:
    """The conic xaAa1Bcx at the coordinate triple x, folded left to right
    as eval_numeric folds it."""
    a, A, a1, B, c = (getattr(params, n).coords for n in ("a", "A", "a1", "B", "c"))
    return _dot(_chain(x, a, A, a1, B, c), x)


def conic_cubic_sixth(pts: NinePointLabels) -> SixthPointResult:
    """Sixth intersection of the cubic with the conic through a, c, d, e, f.

    The conic is xaAa1Bcx = 0 with the fitted parameters (A = de, B = ef,
    a1 = af.cd).  Both e and f lie on the auxiliary cubic
    (xa1Aa.xb1CkBb.xc) = 0, this module's cubic with a and a1, b and b1,
    B and C swapped; y is its third point on the line ef, found by
    third_point_general, and z = yc.ya1Aa.

    The chord uses eight more points of the auxiliary cubic, built by
    joins and meets; at each, the three bracket lines are concurrent.
    At c, a1 and b1 one of them is the zero line.  At x = ac.A, which is
    on A, xa1Aa and xc are both the line ac.  At x = pc.paAa1 for p in
    b, g, h, i, xc is pc and xa1Aa is pa.  As p is on the cubic, the
    lines paAa1, pbBkCb1 and pc meet at x, so xb1 is the line pbBkCb1,
    and xb1CkBb undoes that chain step by step back to pb.  So all three
    lines pass through p.  The points e, f and y are checked on the
    auxiliary cubic exactly.
    """
    params = fit_nine_points(pts)
    a, c, d, e, f = (pt.coords for pt in (pts.a, pts.c, pts.d, pts.e, pts.f))
    a1, b1, A = params.a1.coords, params.b1.coords, params.A.coords
    aux = replace(
        params, a=params.a1, a1=params.a, b=params.b1, b1=params.b, B=params.C, C=params.B
    )
    for name, x in (("e", e), ("f", f)):
        if _cubic_value(aux, x) != 0:
            raise ConstructionError(f"auxiliary cubic misses {name}")
    built = [c, a1, b1, _cross(_cross(a, c), A)]
    for p in (pts.b.coords, pts.g.coords, pts.h.coords, pts.i.coords):
        built.append(_cross(_cross(p, c), _chain(p, a, A, a1)))
    y = third_point_general([Point(*_canonical(x)) for x in built if any(x)], pts.e, pts.f)
    if _cubic_value(aux, y.coords) != 0:
        raise ConstructionError("auxiliary cubic misses y")
    z = _tuple_step("z=yc.ya1Aa", _cross(_cross(y.coords, c), _chain(y.coords, a1, A, a)))

    for name, x in (("a", a), ("c", c), ("d", d), ("e", e), ("f", f)):
        if _sixth_conic_value(params, x) != 0:
            raise ConstructionError(f"conic misses {name}")
    if _sixth_conic_value(params, z) != 0 or _cubic_value(params, z) != 0:
        raise ConstructionError("sixth point failed the exact membership checks")

    coincides = None
    for name, x in (("a", a), ("c", c), ("d", d), ("e", e), ("f", f)):
        if not any(_cross(z, x)):
            coincides = name
            warnings.warn(
                f"sixth intersection point coincides with {name}",
                CoincidenceWarning,
                stacklevel=2,
            )
            break
    return SixthPointResult(z=Point(*z), y=y, params=params, coincides_with=coincides)


def conic_cubic_sixth_via_89(pts: NinePointLabels) -> Point:
    """Sixth conic intersection by chord chaining.

    The chord cd meets the cubic again at r, ef at s, rs at t; the wanted
    point is the third intersection of the chord at with the cubic.
    """
    nine = list(pts.as_tuple())
    a, c, d, e, f = pts.a, pts.c, pts.d, pts.e, pts.f
    r = third_point_general(nine, c, d)
    s = third_point_general(nine + [r], e, f)
    t = third_point_general(nine + [r, s], r, s)
    z = third_point_general(nine + [r, s, t], a, t)
    params = fit_nine_points(pts)
    if _sixth_conic_value(params, z.coords) != 0 or _cubic_value(params, z.coords) != 0:
        raise ConstructionError("sixth point failed the exact membership checks")
    return z


# ---------------------------------------------------------------------------
# group law


def group_add(known, o: Point, p: Point, q: Point, verify_flex: bool = True) -> Point:
    """Chord-and-tangent sum p + q with identity o: the third point of the
    chord through o and the third chord point of pq.

    `known` is a list of points or a pool built once from one; a list is
    deduplicated once per call into a pool, a dict from each canonical
    key to the first point with that key, and that pool serves the flex
    test and both chords.  Coincident summands fall back on the
    tangent construction.  With `verify_flex` the identity is first
    checked to be a flex (one refit plus a tangent-third construction);
    pass False to skip when the caller has already verified it.  A zero
    point among o, p and q raises HypothesisViolation.
    """
    pool = _known_pool(known)
    if verify_flex and not projectively_equal(tangent_third_at(pool, o), o):
        raise FlexVerificationError("identity point is not a flex")

    def chord(u, v):
        if projectively_equal(u, v):
            return tangent_third_at(pool, u)
        return third_point_general(pool, u, v)

    return canonicalize(chord(o, chord(p, q)))


def tangent_third_at(known, p: Point) -> Point:
    """Tangent third point at an arbitrary curve point, by refitting with p
    in the anchor slot.  Particular parameter choices can degenerate the
    tangent formula, so selections are retried.

    `known` is a list of points or a pool, the dict from canonical key to
    point that group_add builds once from one; points that are
    projectively equal count once, by canonical key.
    """
    if p.is_zero:
        raise HypothesisViolation("the tangent point is the zero point")
    p_key = _canonical(p.coords)
    candidates = [pt for key, pt in _known_pool(known).items() if key != p_key]
    return _refit((p,), candidates, lambda params: tangent_third_point(params).w)
