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
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from math import gcd
from typing import NamedTuple

from .core import (
    KindError,
    Line,
    Point,
    Scalar,
    _canonical,
    _cross,
    _dot,
    _key,
    _keyed,
    canonicalize,
    projectively_equal,
)
from .poly import HomPoly, monomials

__all__ = [
    "ConstructionError",
    "GeneralPositionViolation",
    "DegenerateIntermediateError",
    "InsufficientPointsError",
    "HypothesisViolation",
    "FlexVerificationError",
    "CubicParams",
    "NinePointLabels",
    "CUBIC_EXPRESSION",
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
    "conic_cubic_sixth",
    "group_add",
    "tangent_third_at",
    "conic_line_second_intersection",
]


class ConstructionError(Exception):
    """Base class for failures of the straightedge constructions."""


class GeneralPositionViolation(ConstructionError):
    """Three of the given points are collinear (or coincide)."""

    def __init__(self, names):
        self.names = tuple(names)
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


# canonical expression text (accepted verbatim by the parser and the CLI)
CUBIC_EXPRESSION = "(xaAa_1.xbBkCb_1.xc)"


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

    def __post_init__(self):
        for name in ("a", "a1", "b", "b1", "c", "k", "A", "B", "C"):
            kind = Point if name.islower() else Line
            if not isinstance(getattr(self, name), kind):
                raise KindError(f"parameter {name} must be a {kind.__name__.lower()}")

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


class NinePointLabels(NamedTuple):
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

    @classmethod
    def from_points(cls, points) -> "NinePointLabels":
        pts = list(points)
        if len(pts) != 9:
            raise ValueError("exactly nine points required")
        return cls(*pts)


def general_position_violation(points):
    """Indices (i, j, k) of the first collinear (or coincident) triple,
    else None.

    Triples are visited in combinations order.  The bracket [p, q, r] is
    the incidence of the line pq with r, so each pair line is built once
    and serves every later third point, with the cross and dot products
    written out on the coordinates.  Every entry must be a point.
    """
    pts = list(points)
    if not all(type(p) is Point for p in pts):
        raise KindError("general position is a property of points")
    coords = [p.coords for p in pts]
    n = len(pts)
    for i, (u0, u1, u2) in enumerate(coords):
        for j in range(i + 1, n - 1):
            v0, v1, v2 = coords[j]
            l0, l1, l2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
            for k in range(j + 1, n):
                x0, x1, x2 = coords[k]
                if l0 * x0 + l1 * x1 + l2 * x2 == 0:
                    return i, j, k
    return None


# ---------------------------------------------------------------------------
# the nine-point fit


def _fit(pts: NinePointLabels) -> tuple[CubicParams, tuple]:
    """The nine-point fit on coordinate triples: the checked parameters
    and the intermediate triples (g1, g2, h1, h2, i1, i2, y, z, K).
    Three collinear labels raise GeneralPositionViolation with their names.

    Recipe: A = de, B = ef, a1 = af.cd; for each of g, h, i the pair
    p1 = paAa1.pc and p2 = pbB; C = e i1; y = h1g1Cg2.fh1 and
    z = g1h1Ch2.fg1; K = yz; k = K.i1i2; b1 = kg2Cg1.kf.

    Once g1 and h1 exist, [e,g1,h1] = 0 is refused by that name.  The
    fit would refuse such input anyway, at y, z or K: g2 = gbB and
    h2 = hbB lie on B = ef and are not e (no three labels are collinear),
    and C = e i1 passes through e.  With e on g1h1, g1h1.C is e, or zero
    when g1h1 is C or g1 = h1 (then y is zero).  If it is e, the chains
    h1g1Cg2 and g1h1Ch2 are both the line B, so y = B.fh1 and z = B.fg1
    are f or zero, and K = yz is zero.
    """
    viol = general_position_violation(pts)
    if viol is not None:
        raise GeneralPositionViolation(pts._fields[t] for t in viol)
    a, b, c, d, e, f, g, h, i = (p.coords for p in pts)
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
    if _dot(e, cross(g1, h1)) == 0:
        raise DegenerateIntermediateError("[e,g1,h1]")
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


def fit_nine_points_trace(pts: NinePointLabels) -> tuple[CubicParams, dict]:
    """Parameter construction through nine general-position points, with
    its named steps: the parameters and a dict from the step names g1, g2,
    h1, h2, i1, i2, y, z to points and K to a line (recipe: see _fit)."""
    params, (*points, K) = _fit(pts)
    steps = {n: Point(*t) for n, t in zip(("g1", "g2", "h1", "h2", "i1", "i2", "y", "z"), points)}
    steps["K"] = Line(*K)
    return params, steps


def fit_nine_points(pts: NinePointLabels) -> CubicParams:
    """Cubic parameters whose curve passes through the nine given points."""
    return _fit(pts)[0]


def evaluate_cubic(params: CubicParams, x: Point) -> Scalar:
    """Exact value of the defining bracket at x; zero means x is on the curve."""
    if not isinstance(x, Point):
        raise KindError("x must be bound to a point")
    return _cubic_value(params, x.coords)


def _cubic_value(params: CubicParams, x: tuple) -> Scalar:
    """CUBIC_EXPRESSION at the coordinate triple x, folded left to right as
    eval_numeric folds it: L = xaAa1, M = xbBkCb1, then (L.M) against xc."""
    L = _chain(x, params.a.coords, params.A.coords, params.a1.coords)
    M = _chain(
        x, params.b.coords, params.B.coords, params.k.coords, params.C.coords, params.b1.coords
    )
    return _dot(_cross(L, M), _cross(x, params.c.coords))


# the unit triples e_0, e_1, e_2, and the exponents of the monomial
# x_j x_k x_l for each index triple (j, k, l)
_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_MONOMIAL = {
    jkl: tuple(jkl.count(i) for i in range(3)) for jkl in itertools.product(range(3), repeat=3)
}


def expand_cubic(params: CubicParams) -> HomPoly:
    """The degree-3 form f of the curve, in closed form.

    The chains R1x = xaAa1, R2x = xbBkCb1 and R3x = xc are linear in x,
    since each step is a cross product with a fixed triple: R1x is the
    sum of x_j R1e_j over the unit triples e_j, and so are R2x and R3x.
    The bracket [R1x, R2x, R3x] = _dot(_cross(R1x, R2x), R3x), which
    _cubic_value folds at a numeric x, is linear in each of the three, so

        f(x) = sum over j, k, l of x_j x_k x_l [R1e_j, R2e_k, R3e_l],

    27 brackets of basis images collected into the 10 monomials, and
    f(x) = _cubic_value(params, x) at every triple x.  As R3e_l = e_l c,
    the bracket [u, v, e_l c] is entry l of c(uv), so the three brackets
    of one pair j, k come from two cross products.
    """
    R1 = [_chain(e, params.a.coords, params.A.coords, params.a1.coords) for e in _BASIS]
    R2 = [
        _chain(
            e, params.b.coords, params.B.coords, params.k.coords, params.C.coords, params.b1.coords
        )
        for e in _BASIS
    ]
    c = params.c.coords
    coeffs = dict.fromkeys(monomials(3), 0)
    for j, u in enumerate(R1):
        for k, v in enumerate(R2):
            for l, bracket_jkl in enumerate(_cross(c, _cross(u, v))):
                coeffs[_MONOMIAL[j, k, l]] += bracket_jkl
    return HomPoly(3, coeffs)


def check_ten_points(pts: NinePointLabels, p10: Point) -> bool:
    """Whether a tenth point lies on the cubic through the nine; exact.
    The zero triple is no projective point: it raises HypothesisViolation."""
    if isinstance(p10, Point) and p10.is_zero:
        raise HypothesisViolation("the tenth point is the zero point")
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
    return _keyed(Point, y)


def _known_pool(points) -> dict:
    """The known points deduplicated: an ordered dict from each canonical
    coordinate key to the first point with that key, zero points dropped.
    The keys are the ones kept on the points, so a point passed again is
    not reduced again."""
    pool: dict = {}
    for p in points:
        pool.setdefault(_key(p), p)
    # a zero point's key is its zero triple, equal to (0, 0, 0) as a key
    pool.pop((0, 0, 0), None)
    return pool


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
    """construct(labels, params) on the first general-position completion
    of `anchors` from `candidates` whose nine-point fit and construction
    do not raise ConstructionError.  Selections come in search order (see
    _general_position_selections), with the anchors in the first label
    slots; a refused one moves the loop on to the next."""
    count = 9 - len(anchors)
    if len(candidates) < count:
        raise InsufficientPointsError(f"fewer than {count} usable auxiliary points")
    for aux in _general_position_selections(anchors, candidates, count):
        labels = NinePointLabels.from_points((*anchors, *aux))
        try:
            return construct(labels, fit_nine_points(labels))
        except ConstructionError:
            continue
    raise InsufficientPointsError("no admissible auxiliary selection found")


# ---------------------------------------------------------------------------
# the anchor cache

# The canonical key of each anchor maps to its fits with the anchor in
# slot a, as _AnchorFit records.  A fit depends only on its nine labelled
# points, so a fit made on one pool serves any pool that holds its labels.
# group_add's chords fill and read it, and tangent_third_at reads it.
# Bounds: fits kept per anchor, and anchors kept (the least recently used
# goes first).  Two fits per anchor, because on its own fit the anchored
# chord refuses x = b and x = c by structure: both make [c,b,x] zero.
# Such a chord fits again at the anchor without that label, and keeping
# two fits lets both serve.
_FITS_PER_ANCHOR = 2
_ANCHOR_LIMIT = 64
_ANCHOR_CACHE: OrderedDict = OrderedDict()
_ANCHOR_LOCK = threading.Lock()
# The membership tests that _AnchorFit.on_curve admitted, as the keys
# (terms, x); the least recently used goes first beyond the bound.  The
# same lock guards it.
_ON_CURVE_LIMIT = 128
_ON_CURVE: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class _AnchorFit:
    """One cached fit with what the anchored chord reads from it, built
    once by _anchor_fit, which admits the fit to the cache.

    `labels` are the canonical keys of the nine labelled points a..i and
    `others` the set of b..i.  `terms` is the frozenset of the
    (i, j, k, c) of expand_cubic(params).primitive(), the cubic's form
    with coprime integer coefficients; a frozenset keeps its hash once
    computed, so on_curve's table key is cheap to hash.  The rest are
    what _anchored_third's closed form reads, with p, b and c the keys of
    the fit's points a, b and c: the fit-only lines lw = b(((cb1.C)k).B)
    and lv = b(((a1b1.C)k).B), the lines through b on which the chain
    ybBkCb1 is the line cb1 and the line a1b1; the lines cb1 and cd (built
    as a1c, which is cd on a fit, as a1 = af.cd); the integers beta and
    gamma, coprime, with lw x lv = g*beta*b and cd x cb1 = g*gamma*c for
    one integer g; and the lines bp = b x p, pc = p x c and cb = c x b,
    unreduced, so that bp.x = [b,p,x] and pc.x = [p,c,x] at every x.
    None of the lines is zero, lw and lv are distinct, and beta and gamma
    are not zero.
    """

    labels: tuple
    others: frozenset
    params: CubicParams
    terms: frozenset
    lw: tuple
    lv: tuple
    cb1: tuple
    cd: tuple
    beta: int
    gamma: int
    bp: tuple
    pc: tuple
    cb: tuple

    def on_curve(self, x: tuple) -> bool:
        """Whether the coordinate triple x is on the fit's cubic: the same
        predicate as _cubic_value(params, x) == 0, on coefficients of a few
        bits instead of the fit's parameters.

        Proof: expand_cubic(params) is the form F with
        F(x) = _cubic_value(params, x) for every triple x, as its
        docstring shows: the bracket that _cubic_value folds is linear in
        each of its three chains, and each chain is linear in x.
        primitive() divides F by a nonzero rational, so it vanishes
        exactly where F does.  If the bracket is zero at every x, F is the
        zero form (a polynomial over the rationals that vanishes
        everywhere is zero): `terms` is empty and this test holds at every
        x, as the bracket does.

        The test reads only `terms` and x, so a test that held is kept in
        one table shared by every fit, under the key (terms, x), and read
        back for that key.  Sharing is exact: equal terms are one form, so
        one key has one answer.  The fits of one cubic have equal terms
        (primitive() fixes the scale and the sign), so every fit on a pool
        reads the tests of the others; a fit of another cubic has other
        terms and tests afresh.  Only tests that held are kept, at most
        _ON_CURVE_LIMIT = 128 keys, the least recently used going first.
        """
        memo = (self.terms, x)
        with _ANCHOR_LOCK:
            if memo in _ON_CURVE:
                _ON_CURVE.move_to_end(memo)
                return True
        x0, x1, x2 = x
        s0, s1, s2 = x0 * x0, x1 * x1, x2 * x2
        p0, p1, p2 = (1, x0, s0, s0 * x0), (1, x1, s1, s1 * x1), (1, x2, s2, s2 * x2)
        total = 0
        for i, j, k, c in self.terms:
            total += c * p0[i] * p1[j] * p2[k]
        if total:
            return False
        with _ANCHOR_LOCK:
            _ON_CURVE[memo] = True
            if len(_ON_CURVE) > _ON_CURVE_LIMIT:
                _ON_CURVE.popitem(last=False)
        return True


def _anchor_fit(pts: NinePointLabels, params: CubicParams) -> _AnchorFit:
    """The _AnchorFit record of the fit `params` through `pts`, and the one
    test that admits a fit to the cache.  It raises
    DegenerateIntermediateError, naming the step, when the chain ybBkCb1
    is one line for every y (k on B or C, or b1 on C), so that every
    anchored chord and the tangent construction degenerate on the fit, or
    when a fit-only line cb1, cd, lw or lv is zero or lw is lv: the proof
    of _anchored_third needs four lines, with lw and lv distinct.  These
    tests run before the cubic is expanded.

    On a fit, b is off B = ef and a off A = de (no three labels are
    collinear), a1 = af.cd is not c, and a1 is off A = de, as a1 = d
    would put d on af.  So the chain also moves when k is off B and C and
    b1 off C, and it is then a one-to-one map from the lines through b to
    the lines through b1: lw and lv are the lines it sends to cb1 and
    a1b1, and they coincide exactly when c is on a1b1.  Besides that, a
    fit is refused when b1 is c or a1.

    The weights: lw and lv are distinct lines through b, so lw x lv is a
    nonzero multiple of b, and an integer one, as lw x lv is an integer
    triple and b a primitive one; the exact quotient is found by `//` on
    an entry where b is not zero.  cd and cb1 both pass through c, so
    cd x cb1 is an integer multiple of c, and it is not zero: cd = cb1
    would put c on a1b1, which the lw.lv step refuses.  beta and gamma
    are the two quotients divided by their gcd.
    """
    a1, b1 = params.a1.coords, params.b1.coords
    k, B, C = params.k.coords, params.B.coords, params.C.coords
    if _dot(k, B) == 0 or _dot(k, C) == 0 or _dot(b1, C) == 0:
        raise DegenerateIntermediateError("ybBkCb1 is one line for every y")
    p, b, c = (_key(getattr(params, n)) for n in "abc")
    step = _tuple_step
    cb1 = step("cb1", _cross(c, b1))
    cd = step("cd=a1c", _cross(a1, c))
    lw = step("lw=b((cb1.C)k.B)", _cross(b, _chain(cb1, C, k, B)))
    lv = step("lv=b((a1b1.C)k.B)", _cross(b, _chain(_cross(a1, b1), C, k, B)))
    lw_lv = _cross(lw, lv)
    if not any(lw_lv):
        raise DegenerateIntermediateError("lw.lv")
    beta, gamma = _quotient(lw_lv, b), _quotient(_cross(cd, cb1), c)
    common = gcd(beta, gamma)
    labels = tuple(_key(pt) for pt in pts)
    form = expand_cubic(params).primitive()
    return _AnchorFit(
        labels=labels,
        others=frozenset(labels[1:]),
        params=params,
        terms=frozenset((*mono, int(coeff)) for mono, coeff in form.coeffs.items()),
        lw=lw,
        lv=lv,
        cb1=cb1,
        cd=cd,
        beta=beta // common,
        gamma=gamma // common,
        bp=_cross(b, p),
        pc=_cross(p, c),
        cb=_cross(c, b),
    )


def _quotient(t: tuple, u: tuple) -> int:
    """The integer s with t = s*u, for an integer triple t that is a
    multiple of the primitive triple u."""
    i = 0 if u[0] else 1 if u[1] else 2
    return t[i] // u[i]


def _clear_anchor_cache() -> None:
    with _ANCHOR_LOCK:
        _ANCHOR_CACHE.clear()
        _ON_CURVE.clear()


def _cached_fits(pool, p_key) -> list:
    """The cached fits at anchor p_key whose other eight labels are all
    keys of the pool, oldest first, read under the lock."""
    with _ANCHOR_LOCK:
        fits = _ANCHOR_CACHE.get(p_key)
        if not fits:
            return []
        _ANCHOR_CACHE.move_to_end(p_key)
    keys = pool.keys()
    return [fit for fit in fits if keys >= fit.others]


def _cache_fit(p_key, fit: _AnchorFit) -> None:
    """Add a fit at anchor p_key, dropping the oldest beyond the bounds."""
    with _ANCHOR_LOCK:
        fits = _ANCHOR_CACHE.pop(p_key, [])
        _ANCHOR_CACHE[p_key] = [*fits, fit][-_FITS_PER_ANCHOR:]
        if len(_ANCHOR_CACHE) > _ANCHOR_LIMIT:
            _ANCHOR_CACHE.popitem(last=False)


def _anchored_third(fit: _AnchorFit, x: Point) -> Point:
    """Third point of the line L = px on a fit with p in slot a, where x is
    any curve point: no refit.

    `fit` is the fit's record, admitted by _anchor_fit: its labels are the
    canonical keys of its nine labelled points a..i (a = p), its chain
    ybBkCb1 moves, lw, lv, cb1 and cd are lines, lw and lv distinct, and
    lw x lv = g*beta*b and cd x cb1 = g*gamma*c with g, beta and gamma
    not zero.  [u,v,y] is the determinant of three triples and u.y their
    dot product.  If a label other than x lies on L, that label is the
    point: no three labels are collinear, so it is the curve point of L
    besides p and x.  Otherwise the chord refuses when [c,b,x] = 0, and
    else the point is the closed form

        z = beta(cb1.x)[b,p,x] (cd x L) - gamma[p,c,x](lw.x) (lv x L),

    of degree 3 in x, with [b,p,x] = bp.x and [p,c,x] = pc.x read off the
    record's lines.  Only L and z are reduced.  Why this is the point:

    The construction.  One choice of O, M, w, v builds the point with
    joins and meets:

    - On L the cubic is lambda(y)Q(y).  For y on L, ya is lambda(y)L with
      lambda linear and zero at p, so the chain yaAa1 is lambda(y)l1 with
      l1 = (L.A)a1, a line through a1.  Q(y) = [l1, ybBkCb1, yc], and the
      curve points of L are p, x and the wanted z, so Q's roots are x and
      z (Q is zero when L lies on the cubic).
    - phi(y) = m(y)c.L with m(y) = ybBkCb1.l1 is linear in y, say Ty, and
      Q(y) is the determinant of y and Ty on L up to a constant factor:
      the fixed points of phi (and the zeros of T) are Q's roots.  So
      z = p or z = x happens only when the chord is tangent there, and
      then that endpoint is the answer.
    - The chord samples T at w = L.lw and v = L.lv, distinct as lw and lv
      are distinct lines through b.  O = b, off L unless x = b, and c is
      off L unless x = c.  For y on lw, the chain ybBkCb1 is the line cb1,
      so m(w) is on cb1, and phi(w) = cb1.L unless m(w) = c.  For y on lv,
      it is a1b1, which meets l1 at a1 unless l1 is a1b1; so
      phi(v) = a1c.L = cd.L.  With M = xc, U = lw.M and V = lv.M are where
      Ow and Ov meet M, and the chain is O' = phi(w)U.phi(v)V and
      z = OO'.L.
    - y to ybBkCb1 is one-to-one onto the lines through b1 (b is off L
      and B), and l1 is not zero (a and a1 are off A), so T is one-to-one
      except in two cases, where it has rank one.  (R1) L passes through
      A.a1b1, so l1 is a1b1: the kernel is v and the image cb1.L.  (R2) c
      is on l1, so l1 is a1c = cd and L passes through cd.A = d, a label,
      so x = d: the kernel is w (m(w) = c) and the image cd.L = x.  Both
      at once would need c on a1b1.  Outside these cases, cb1.L and cd.L
      are phi(w) and phi(v).
    - O on M, that is [c,b,x] = 0: U = V = O, so O' is O or zero, and OO'
      is zero.  This covers x = b and x = c.  Below, O is off M.
    - T one-to-one, with x, w, v distinct: phi(w) is not x (Tw is not
      Tx), so the line phi(w)U is neither L nor M, and so for phi(v)V.
      Then O' is off L (that would make phi(w) = phi(v)) and off M (U is
      not V).  The map psi sending y to L.O'(Oy.M) is a projectivity of L
      that agrees with phi at x, w and v, so psi = phi.  A fixed point y
      of psi other than x has Oy.M on O'y, so O' is on Oy: z = OO'.L.
      OO'.L is always a fixed point of psi; when it is x, any other fixed
      point would make O' = O, so x is the only one, a double root of Q,
      and z = x.  phi the identity (L on the cubic) gives O' = O, and OO'
      is zero.
    - Rank one, with x, w, v distinct.  (R1) x is not the kernel v, so x
      is the image cb1.L = phi(w) and z = v: phi(w)U is M, so O' is V or
      zero, and OO'.L = v.  (R2) x is not the kernel w, so z = w:
      phi(v) = x, phi(v)V is M, phi(w) is not x (x = d would be on cb1
      and cd, so c = x), O' = U and OO'.L = w.
    - x = w: U = x.  If T is one-to-one or (R1), phi(w) = x and phi(w)U
      is zero.  In (R2) the kernel w is x and so is the image: x is a
      double root, phi(w)U is L, phi(v)V is M, O' = x = z.  x = v: V = x.
      If T is one-to-one or (R2), phi(v) = x and phi(v)V is zero.  In
      (R1) x is the kernel and z the image phi(w): phi(v)V is L unless
      phi(v) = x (then zero), O' = phi(w) = z.

    So wherever the chain's z, as a product of cross products with no
    reduction, is not zero, it is the third point.

    The closed form.  Take the chain's steps unreduced, with L = p x x,
    and expand each meet of joins by (a x b) x (c x d) = [a,b,d]c -
    [a,b,c]d.  Note c.L = [p,x,c], x.L = 0 and L x M = [p,x,c]x.

    - U x V = [lw,lv,M]M = g*beta[x,c,b]M, and
      phi(v) x phi(w) = [cd,cb1,L]L = g*gamma[p,x,c]L.
    - O' = [phi(w),U,V]phi(v) - [phi(w),U,phi(v)]V.  The first bracket is
      g*beta[x,c,b](phi(w).M) with phi(w).M = cb1.(L x M) =
      [p,x,c](cb1.x); the second is g*gamma[p,x,c](U.L) with
      U = (lw.c)x - (lw.x)c, so U.L = -[p,x,c](lw.x).  So
      O' = g[p,x,c](beta[x,c,b](cb1.x)phi(v) + gamma[p,x,c](lw.x)V).
    - z = OO'.L = (b x O') x L = (b.L)O' - (O'.L)b.  phi(v) is on L and
      V.L = -[p,x,c](lv.x), so z/(g[p,x,c]) is
      beta[x,c,b](cb1.x)(b.L)phi(v) + gamma[p,x,c](lw.x)W with
      W = (b.L)V + [p,x,c](lv.x)b.
    - The four-term identity [x,c,b]p - [p,c,b]x + [p,x,b]c - [p,x,c]b = 0
      gives [x,c,b](lv x L) = [x,c,b]((lv.x)p - (lv.p)x) as a sum over x,
      c and b.  Its b and c terms are those of W (b.L = [p,x,b]), and its
      x term is too: the identity dotted with lv, where lv.b = 0, gives
      [p,x,b](lv.c) = [p,c,b](lv.x) - [x,c,b](lv.p).  So
      W = [x,c,b](lv x L), and with [b,p,x] = b.L and [p,c,x] = -[p,x,c],
      the chain's z is g[x,c,b][p,x,c] times the formula above.
    - Reducing L scales both of the formula's terms alike, and so does
      dividing beta and gamma by the same factor.  So does dividing the
      two weights s = beta(cb1.x)[b,p,x] and t = gamma[p,c,x](lw.x) by
      gcd(s, t), which is not zero unless s = t = 0.  Then the formula is
      the zero triple, as the chain is, and the chord refuses at step z,
      with the weights left as they are.

    After the label test and the [c,b,x] test, c is a label other than x
    and off L, so [p,x,c] is not zero, and g is not zero: the formula is
    zero exactly where the chain is, and otherwise it is the chain's
    point.  So it refuses exactly where the chain of joins and meets
    refuses.  The point is returned only if x is on the fit's cubic and
    the point is on L and on the cubic, checked on the fit's primitive
    form (_AnchorFit.on_curve, the same predicate as
    _cubic_value(params, .) == 0); otherwise ConstructionError is raised
    and the caller tries the next fit.
    """
    labels = fit.labels
    p, x = labels[0], _key(x)
    L = _tuple_step("L=px", _cross(p, x))
    if not fit.on_curve(x):
        raise ConstructionError("anchored chord endpoint is off the fitted cubic")
    for z in labels[1:]:
        if z != x and _dot(L, z) == 0:
            if fit.on_curve(z):
                return _keyed(Point, z)
            raise ConstructionError("label on the chord is off the fitted cubic")
    if _dot(fit.cb, x) == 0:
        raise DegenerateIntermediateError("[c,b,x]")
    s = fit.beta * _dot(fit.cb1, x) * _dot(fit.bp, x)
    t = fit.gamma * _dot(fit.pc, x) * _dot(fit.lw, x)
    common = gcd(s, t) or 1
    s, t = s // common, t // common
    u0, u1, u2 = _cross(fit.cd, L)
    v0, v1, v2 = _cross(fit.lv, L)
    z = _tuple_step("z", (s * u0 - t * v0, s * u1 - t * v1, s * u2 - t * v2))
    if _dot(L, z) == 0 and fit.on_curve(z):
        return _keyed(Point, z)
    raise ConstructionError("anchored chord point is off the fitted cubic")


def third_point_general(known, p: Point, q: Point) -> Point:
    """Third intersection of line pq with the cubic through the known points.

    `known` is an iterable of points; points that are projectively equal
    count once, by canonical key.  Selects seven auxiliary points off the
    line pq so that (p, q, aux) is in general position, refits the cubic
    with p and q in the anchor slots, and applies the chord formula.  The
    auxiliary selection is the first admissible one in input order, so
    results are reproducible; the returned point does not depend on the
    fit.

    Hypothesis: p and q lie on the cubic through the known points.  It is
    not checked: with an endpoint off that cubic, the refit is another
    cubic through that endpoint, and the returned point is in general off
    the cubic through the known points.  A zero endpoint, or p and q
    projectively equal, raises HypothesisViolation.
    """
    if p.is_zero or q.is_zero:
        raise HypothesisViolation("a chord endpoint is the zero point")
    pq = _cross(p.coords, q.coords)
    if not any(pq):
        raise HypothesisViolation("chord endpoints coincide")
    # points on pq, p and q among them, never complete a general-position set
    candidates = [pt for pt in _known_pool(known).values() if _dot(pq, pt.coords) != 0]
    return _refit((p, q), candidates, lambda _, params: third_point_on_chord_ab(params))


def _chord(pool, p: Point, q: Point) -> Point:
    """group_add's chord through distinct nonzero points p and q: the
    anchored chord on the cached fits at p with x = q, then at q with
    x = p, except to their labels b and c (see _FITS_PER_ANCHOR); else the
    first fit at p that _anchor_fit admits and that serves it, which is
    cached; else, when the pool leaves no such fit, third_point_general."""
    p_key, q_key = _key(p), _key(q)
    for anchor, x, x_key in ((p_key, q, q_key), (q_key, p, p_key)):
        for fit in _cached_fits(pool, anchor):
            if x_key not in fit.labels[1:3]:
                try:
                    return _anchored_third(fit, x)
                except ConstructionError:
                    continue

    def serving(labels, params):
        fit = _anchor_fit(labels, params)
        return fit, _anchored_third(fit, q)

    candidates = [pt for key, pt in pool.items() if key != p_key and key != q_key]
    try:
        fit, z = _refit((p,), candidates, serving)
    except InsufficientPointsError:
        return third_point_general(pool.values(), p, q)
    _cache_fit(p_key, fit)
    return z


# ---------------------------------------------------------------------------
# tangents


def tangent_at_a(params: CubicParams) -> Line:
    """Tangent line to the cubic at the parameter point a.

    Formula: (abBkCb1.ac)a1Aa.  The tangent is defined at a smooth point;
    at a singular point the formula degenerates.  A zero step raises
    DegenerateIntermediateError naming that step, as in
    tangent_third_point.
    """
    return Line(*_tangent_with_contact(params)[0])


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


def _line_pair(five):
    """How the conic through five coordinate triples splits: None when no
    three of them are collinear (the conic is smooth), else the line pair
    (l1, l2), l1 the line of the first collinear triple and l2 the line
    through the other two points.

    Raises DegenerateIntermediateError when the five do not fix one conic:
    a zero point, two equal points or four collinear points.  Each of
    these makes at least three triples collinear, while a line pair has
    one collinear triple, or two when its double point is among the five.
    """
    triples = [t for t in itertools.combinations(five, 3) if _dot(_cross(t[0], t[1]), t[2]) == 0]
    if len(triples) > 2:
        raise DegenerateIntermediateError("five points do not determine a unique conic")
    if not triples:
        return None
    a, b, c = triples[0]
    d, e = [pt for pt in five if pt not in triples[0]]
    return _cross(a, b), _cross(d, e)


def _second_intersection(five, pair, L, known) -> tuple:
    """Second intersection x of the line L with the conic through the five
    coordinate triples, on a conic split as _line_pair(five) gives it.
    `known` lies on L and on the conic; it may or may not be one of the
    five.  x is `known` exactly when L is tangent to the conic there.

    Line pair l1 l2: x is L.l2 when `known` is on l1 only, L.l1 when it is
    on l2 only, and `known` itself when it is the double point.  L.l2 and
    L.l1 are never `known`, which is off the other line.  A line L of the
    pair lies on the conic, which DegenerateIntermediateError reports.

    Smooth conic: pa, pb, pc, pd are the first four of the five other than
    `known`.  By Pascal's theorem the hexagon x pa pb pc pd known has its
    three cross-meets m1 = L.(pb pc), m3 = (pa pb).(pd known) and
    m2 = (x pa).(pc pd) on one line, so m2 = m1m3.(pc pd) and
    x = (pa m2).L.  When L is tangent at `known`, the side known x is that
    tangent and x = known.  No step vanishes, because no three of the six
    conic points are collinear:
    - m1 = 0 would make pb pc the line L, through known; m3 = 0 would
      make pd known the line pa pb;
    - m1 = m3 is on pb pc and on pa pb, so it would be pb, on pd known;
    - m2 = 0, that is axis = pc pd, forces m1 = pc, then m3 = pd, which
      lies on pa pb;
    - m2 = pa is impossible, because pa is not on pc pd;
    - pa m2 = L would need pa on L.  Then x = pa, the side x pa is the
      tangent at pa, so pa m2 is that tangent, not the secant L.
    """
    step = _tuple_step
    if pair is not None:
        if not all(any(_cross(L, line)) for line in pair):
            raise DegenerateIntermediateError("the line is a line of the conic's pair")
        off = [line for line in pair if _dot(line, known) != 0]
        if not off:
            return _canonical(known)
        return step("x=L.l", _cross(L, off[0]))
    pa, pb, pc, pd = [pt for pt in five if any(_cross(pt, known))][:4]
    m1 = step("m1=L.pbpc", _cross(L, _cross(pb, pc)))
    m3 = step("m3=papb.pdk", _cross(_cross(pa, pb), _cross(pd, known)))
    axis = step("axis=m1m3", _cross(m1, m3))
    m2 = step("m2=axis.pcpd", _cross(axis, _cross(pc, pd)))
    return step("x=pam2.L", _cross(_cross(pa, m2), L))


def conic_line_second_intersection(five, L: Line, known: Point) -> Point:
    """Second intersection of a line with the conic through five points.

    `known` must lie on both the line and the conic.  The point is built
    from joins and meets only, one fixed Pascal recipe (see
    _second_intersection); a conic that is a line pair has its own
    branch.  On a smooth conic, the membership of `known` is one Pascal
    bracket of the hexagon through it and the five.  When the line is
    tangent at `known` the result is `known`.
    """
    five = [pt.coords for pt in five]
    if len(five) != 5:
        raise ValueError("exactly five conic points required")
    if L.is_zero or known.is_zero:
        raise HypothesisViolation("the line or the known point is a zero object")
    pair = _line_pair(five)
    L, known = L.coords, known.coords
    if _dot(L, known) != 0:
        raise HypothesisViolation("known point is not on the line")
    if pair is None:
        # a quadratic form in `known` that vanishes at the five, so a
        # multiple of the conic's form; nonzero as no three are collinear
        m1, m2, m3 = _pascal(*five, known)
        on_conic = _dot(m1, _cross(m2, m3)) == 0
    else:
        on_conic = any(_dot(line, known) == 0 for line in pair)
    if not on_conic:
        raise HypothesisViolation("known point is not on the conic")
    return Point(*_second_intersection(five, pair, L, known))


def _pascal(a, b, c, a1, b1, c1) -> tuple[tuple, tuple, tuple]:
    """The three cross-meets ab1.a1b, ac1.a1c and bc1.b1c of the hexagon
    a b1 c a1 b c1, on coordinate triples.  By Pascal's theorem they are
    collinear when the six lie on a conic; their bracket is the on-conic
    test of conic_line_second_intersection."""
    return (
        _cross(_cross(a, b1), _cross(a1, b)),
        _cross(_cross(a, c1), _cross(a1, c)),
        _cross(_cross(b, c1), _cross(b1, c)),
    )


# ---------------------------------------------------------------------------
# tangent third point (and flexes)


def tangent_third_point(params: CubicParams) -> Point:
    """Third intersection of the tangent at a with the cubic.

    The tangent aq (with q = (abBkCb1.ac)a1A) meets the auxiliary conic
    (qa1.xc.xbBkCb1) = 0 at a and at the wanted point w, which lies on
    the cubic.  Five points of that conic are built by joins and meets,
    and the five-point second-intersection step along the tangent gives
    w.  w is a exactly when the tangent meets the cubic three times at a,
    that is when a is a flex (see is_flex).

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

    def lemma_points():
        yield "y=b1cCkBb.b1c", _cross(_chain(b1, c, C, k, B, b), _cross(b1, c))
        for name, m in (("x5=qc.qb1CkBb", q), ("x5=a1c.a1b1CkBb", a1)):
            yield name, _cross(_cross(m, c), _chain(m, b1, C, k, B, b))

    base = {"a": a, "b": b, "c": c}
    for name, x in lemma_points():
        if not any(x):
            continue
        x = _canonical(x)
        if all(any(_cross(x, pt)) for pt in base.values()):
            base[name] = x
            if len(base) == 5:
                break
    else:
        raise DegenerateIntermediateError(name)

    qa1 = _tuple_step("auxiliary conic", _cross(q, a1))
    for name, x in base.items():
        if _dot(_cross(qa1, _cross(x, c)), _chain(x, b, B, k, C, b1)) != 0:
            raise ConstructionError(f"auxiliary conic misses {name}")

    five = tuple(base.values())
    w = _second_intersection(five, _line_pair(five), tangent, a)
    if _cubic_value(params, w) != 0:
        raise ConstructionError("tangent third point failed the membership check")
    return _keyed(Point, w)


def is_flex(params: CubicParams) -> bool:
    """Whether the parameter point a is a flex: the tangent's third
    intersection point falls back on a itself."""
    return projectively_equal(tangent_third_point(params), params.a)


# ---------------------------------------------------------------------------
# conic meets cubic


def _sixth_conic_value(params: CubicParams, x: tuple) -> Scalar:
    """The conic xaAa1Bcx at the coordinate triple x, folded left to right
    as eval_numeric folds it."""
    a, A, a1, B, c = (getattr(params, n).coords for n in ("a", "A", "a1", "B", "c"))
    return _dot(_chain(x, a, A, a1, B, c), x)


def conic_cubic_sixth(pts: NinePointLabels) -> tuple[Point, Point]:
    """Sixth intersection of the cubic with the conic through a, c, d, e, f.

    The conic is xaAa1Bcx = 0 with the fitted parameters (A = de, B = ef,
    a1 = af.cd).  Both e and f lie on the auxiliary cubic
    (xa1Aa.xb1CkBb.xc) = 0, this module's cubic with a and a1, b and b1,
    B and C swapped; y is its third point on the line ef, found by
    third_point_general, and z = yc.ya1Aa.  Returns the pair (z, y).

    The chord uses eight more points of the auxiliary cubic, built by
    joins and meets; at each, the three bracket lines are concurrent.
    At c, a1 and b1 one of them is the zero line.  At x = ac.A, which is
    on A, xa1Aa and xc are both the line ac.  At x = pc.paAa1 for p in
    b, g, h, i, xc is pc and xa1Aa is pa.  As p is on the cubic, the
    lines paAa1, pbBkCb1 and pc meet at x, so xb1 is the line pbBkCb1,
    and xb1CkBb undoes that chain step by step back to pb.  So all three
    lines pass through p.  The points e, f and y are checked on the
    auxiliary cubic exactly.

    When two of b, g, h, i also lie on the conic, it holds seven of the
    cubic's nine points.  A conic through five points with no three
    collinear is irreducible, and one that shares more than six points
    with a cubic is a component of it (Bezout), so there is no sixth
    point: HypothesisViolation is raised.
    """
    params = fit_nine_points(pts)
    on_conic = [n for n in "bghi" if _sixth_conic_value(params, getattr(pts, n).coords) == 0]
    if len(on_conic) >= 2:
        raise HypothesisViolation(
            "the conic through a, c, d, e, f is a component of the cubic: "
            f"it also passes through {', '.join(on_conic)}"
        )
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
    y = third_point_general([_keyed(Point, _canonical(x)) for x in built if any(x)], pts.e, pts.f)
    if _cubic_value(aux, y.coords) != 0:
        raise ConstructionError("auxiliary cubic misses y")
    z = _tuple_step("z=yc.ya1Aa", _cross(_cross(y.coords, c), _chain(y.coords, a1, A, a)))

    defining = (("a", a), ("c", c), ("d", d), ("e", e), ("f", f))
    for name, x in defining:
        if _sixth_conic_value(params, x) != 0:
            raise ConstructionError(f"conic misses {name}")
    if _sixth_conic_value(params, z) != 0 or _cubic_value(params, z) != 0:
        raise ConstructionError("sixth point failed the exact membership checks")
    return Point(*z), y


# ---------------------------------------------------------------------------
# group law


def group_add(known, o: Point, p: Point, q: Point, verify_flex: bool = True) -> Point:
    """Chord-and-tangent sum p + q with identity o: the third point of the
    chord through o and the third chord point of pq.

    `known` is an iterable of points, deduplicated once per call into a
    pool, a dict from each canonical key to the first point with that
    key, and that pool serves the flex test and both chords.  Each chord
    first tries the anchor cache, and when no cached fit serves it, caches
    the first fit with its first endpoint (p, then o) in the anchor slot
    that serves it; a pool that leaves no such fit falls back on
    third_point_general.  Coincident summands, compared by canonical key,
    fall back on the tangent construction.  With `verify_flex` the
    identity is first checked to be a flex (a tangent-third construction
    on a cached fit or a refit); pass False to skip when the caller has
    already verified it.  A zero point among o, p and q raises
    HypothesisViolation.

    Hypothesis: o, p and q lie on the cubic through the known points.  It
    is not checked: with a point off that cubic, the sum is in general off
    it too.
    """
    if o.is_zero or p.is_zero or q.is_zero:
        raise HypothesisViolation("a summand or the identity is the zero point")
    pool = _known_pool(known)
    if verify_flex and not projectively_equal(tangent_third_at(pool.values(), o), o):
        raise FlexVerificationError("identity point is not a flex")

    def chord(u, v):
        if _key(u) == _key(v):
            return tangent_third_at(pool.values(), u)
        return _chord(pool, u, v)

    return canonicalize(chord(o, chord(p, q)))


def tangent_third_at(known, p: Point) -> Point:
    """Tangent third point at an arbitrary curve point: tangent_third_point
    on a cached fit with p in the anchor slot whose labels are known
    points, else on a refit with p in the anchor slot.  Particular
    parameter choices can degenerate the tangent formula, so fits and
    selections are retried.

    `known` is an iterable of points; points that are projectively equal
    count once, by canonical key.  Hypothesis: p lies on the cubic through
    the known points.  It is not checked: with p off that cubic, the
    returned point is in general off it too.
    """
    if p.is_zero:
        raise HypothesisViolation("the tangent point is the zero point")
    p_key = _key(p)
    pool = _known_pool(known)
    for fit in _cached_fits(pool, p_key):
        try:
            return tangent_third_point(fit.params)
        except ConstructionError:
            continue
    candidates = [pt for key, pt in pool.items() if key != p_key]
    return _refit((p,), candidates, lambda _, params: tangent_third_point(params))
