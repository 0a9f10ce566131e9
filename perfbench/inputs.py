"""Seeded inputs for the benchmark, built without the construction layer.

Every expected answer here comes from exact polynomial work only: curves
are fitted with ``poly.nullspace_fit``, chord and tangent third points
are read off ``poly.restrict_to_line`` (the deflation the ``oracle`` layer
uses), and tangents come from ``oracle.gradient_tangent``.  Nothing is
imported from ``grassmann.constructions`` (or from the repository's tests),
so agreement between a construction and these answers is a real check.

Points are handled as primitive integer triples (gcd 1, first nonzero
entry positive), which is also the form the CLI prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from grassmann.core import Line, Point, meet
from grassmann.oracle import gradient_tangent, hessian_flex_oracle
from grassmann.poly import HomPoly, RankDeficientError, evaluate, nullspace_fit, restrict_to_line

GRID_BOUND = 10
FLEX = (0, 0, 1)
# y^2 = x^3 + 17 as [x0:x1:x2] = [z:x:y]; rank 2, so chords and tangents
# never run out of new rational points
A4, A6 = 0, 17
CURVE_SEEDS = ((-2, 3), (-1, 4), (2, 5), (4, 9), (8, 23))
POOL_SIZE = 40
SMALL_POOL_MAX_BITS = 120
TALL_MULTIPLES = range(12, 22)
TALL_BASES = CURVE_SEEDS[:4]


def primitive(coords) -> tuple[int, ...]:
    """Primitive integer representative of a rational triple (or vector)."""
    fr = [Fraction(c) for c in coords]
    den = 1
    for c in fr:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fr]
    common = 0
    for v in ints:
        common = gcd(common, v)
    if common == 0:
        return tuple(ints)
    ints = [v // common for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def bits(t) -> int:
    return max(abs(c).bit_length() for c in t)


def det3(p, q, r) -> int:
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


# ---------------------------------------------------------------------------
# chord and tangent third points by deflation (oracle-only)


def chord_third(f: HomPoly, p, q):
    """Third point of line pq on f = 0; p and q are distinct curve points."""
    form = restrict_to_line(f, Point(*p), Point(*q))
    if form[0] != 0 or form[3] != 0:
        raise ValueError("chord endpoints are not on the curve")
    c1, c2 = form[1], form[2]
    return primitive(-c2 * pc + c1 * qc for pc, qc in zip(p, q))


def tangent_third(f: HomPoly, p):
    """Third point of the tangent at the smooth curve point p."""
    tangent = gradient_tangent(f, Point(*p))
    if tangent.is_zero:
        raise ValueError("singular point")
    for base in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)):
        q = primitive(meet(tangent, Line(*base)).coords)
        if any(q) and q != p:
            break
    form = restrict_to_line(f, Point(*p), Point(*q))
    c2, c3 = form[2], form[3]
    return primitive(-c3 * pc + c2 * qc for pc, qc in zip(p, q))


def third(f: HomPoly, p, q):
    return tangent_third(f, p) if p == q else chord_third(f, p, q)


def oracle_add(f: HomPoly, p, q, o=FLEX):
    """Chord-and-tangent sum p + q with the flex o as identity."""
    return third(f, o, third(f, p, q))


# ---------------------------------------------------------------------------
# Weierstrass pools


def weierstrass() -> HomPoly:
    return HomPoly(3, {(0, 3, 0): 1, (2, 1, 0): A4, (3, 0, 0): A6, (1, 0, 2): -1})


def on_weierstrass(t) -> bool:
    """Exact membership on y^2 = x^3 + A4 x + A6, in plain integers."""
    z, x, y = t
    return x**3 + A4 * x * z * z + A6 * z**3 - y * y * z == 0


def small_pool(f: HomPoly) -> list[tuple[int, int, int]]:
    """Breadth-first closure of the seed points under chords and tangents,
    affine points of at most SMALL_POOL_MAX_BITS bits, first POOL_SIZE kept."""
    pool: list[tuple[int, int, int]] = []

    def add(t):
        if t[0] != 0 and bits(t) <= SMALL_POOL_MAX_BITS and t not in pool:
            pool.append(t)

    for x, y in CURVE_SEEDS:
        add((1, x, y))
        add((1, x, -y))
    while len(pool) < POOL_SIZE:
        snapshot = list(pool)
        for i, p in enumerate(snapshot):
            add(tangent_third(f, p))
            for q in snapshot[i + 1 :]:
                add(chord_third(f, p, q))
    return pool[:POOL_SIZE]


def tall_pool(f: HomPoly) -> list[tuple[int, int, int]]:
    """The multiples nP, n in TALL_MULTIPLES, of each point P in TALL_BASES."""
    pool = []
    for x, y in TALL_BASES:
        base = (1, x, y)
        multiple = base
        for n in range(2, TALL_MULTIPLES.stop):
            multiple = oracle_add(f, multiple, base)
            if n in TALL_MULTIPLES:
                if multiple in pool or multiple[0] == 0:
                    raise ValueError(f"{n}P of {base} repeats a pool point")
                pool.append(multiple)
    return pool


@dataclass
class GroupOp:
    """One ``group_add(known, FLEX, p, q)`` call and the oracle's answer."""

    known: list
    p: Point
    q: Point
    expected: tuple[int, int, int]


def group_rounds(f: HomPoly, pool, rng: random.Random):
    """Endless criterion-09 op mix, one round of 14 ops at a time: five
    commutativity pairs (p + q and q + p on the fixed pool) and one
    associativity triple (p + q, q + r, (p + q) + r with p + q appended to
    the pool, and p + (q + r) with q + r appended)."""
    points = {t: Point(*t) for t in pool}
    known = [points[t] for t in pool]
    sums: dict = {}

    def add(p, q):
        key = (p, q) if p <= q else (q, p)
        if key not in sums:
            s = oracle_add(f, p, q)
            if not on_weierstrass(s):
                raise ValueError("oracle sum is off the curve")
            sums[key] = s
        return sums[key]

    while True:
        ops: list[GroupOp] = []
        for _ in range(5):
            p, q = rng.sample(pool, 2)
            s = add(p, q)
            ops.append(GroupOp(known, points[p], points[q], s))
            ops.append(GroupOp(known, points[q], points[p], s))
        p, q, r = rng.sample(pool, 3)
        pq, qr = add(p, q), add(q, r)
        lhs, rhs = add(pq, r), add(p, qr)
        if lhs != rhs:
            raise ValueError("oracle group law is not associative")
        ops.append(GroupOp(known, points[p], points[q], pq))
        ops.append(GroupOp(known, points[q], points[r], qr))
        ops.append(GroupOp(known + [Point(*pq)], Point(*pq), points[r], lhs))
        ops.append(GroupOp(known + [Point(*qr)], points[p], Point(*qr), rhs))
        yield ops


# ---------------------------------------------------------------------------
# grid scenes


@dataclass
class GridScene:
    """Nine general-position grid points a..i on one cubic, a tenth point
    p_1 on that cubic and a point q_1 off it, with the oracle's answers."""

    nine: list
    on_curve: tuple[int, int, int]
    off_curve: tuple[int, int, int]
    cubic: list  # primitive coefficient vector, monomial order of poly
    chord_third: tuple[int, int, int]  # of ab
    tangent: tuple[int, int, int]  # at a
    tangent_third: tuple[int, int, int]  # at a
    sixth: tuple[int, int, int]  # of the cubic with the conic

    def serialize(self) -> str:
        names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "p_1", "q_1"]
        pts = [*self.nine, self.on_curve, self.off_curve]
        rows = [f"point {n} = {', '.join(map(str, t))}" for n, t in zip(names, pts)]
        return "format: 1\n" + "\n".join(sorted(rows)) + "\n"


def _grid_point(rng: random.Random):
    return (1, rng.randint(-GRID_BOUND, GRID_BOUND), rng.randint(-GRID_BOUND, GRID_BOUND))


def _general_position(pts) -> bool:
    n = len(pts)
    return all(
        det3(pts[i], pts[j], pts[k]) != 0
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def _cross(u, v):
    """Join of two points or meet of two lines, reduced by the gcd."""
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    g = gcd(*w)
    return tuple(c // g for c in w) if g else w


def fit_recipe_generic(nine) -> bool:
    """Whether every step of the nine-point fit recipe is a nonzero object
    and its line C differs from A and B.

    The recipe is the labelled one the package documents (A = de, B = ef,
    a1 = af.cd; p1 = paAa1.pc and p2 = pbB for p in g, h, i; C = e i1;
    y = h1g1Cg2.fh1, z = g1h1Ch2.fg1; K = yz; k = K.i1i2; b1 = kg2Cg1.kf),
    run here in plain integer cross products.  Nine points in general
    position can still make a step vanish, for instance y = z so that K is
    zero; every command then refuses the scene with exit status 2."""
    a, b, c, d, e, f, g, h, i = nine
    x = _cross
    A, B = x(d, e), x(e, f)
    a1 = x(x(a, f), x(c, d))

    def pair(p):
        return x(x(x(x(p, a), A), a1), x(p, c)), x(x(p, b), B)

    (g1, g2), (h1, h2), (i1, i2) = pair(g), pair(h), pair(i)
    C = x(e, i1)
    y = x(x(x(x(h1, g1), C), g2), x(f, h1))
    z = x(x(x(x(g1, h1), C), h2), x(f, g1))
    K = x(y, z)
    k = x(K, x(i1, i2))
    b1 = x(x(x(x(k, g2), C), g1), x(k, f))
    steps = (A, B, a1, g1, g2, h1, h2, i1, i2, C, y, z, K, k, b1, x(A, C), x(B, C))
    return all(any(t) for t in steps)


def grid_scene(rng: random.Random) -> GridScene:
    """A seeded grid scene on which every benchmarked command has a generic
    answer: nine points in general position on a unique cubic, with no
    vanishing step in the fit recipe (``fit_recipe_generic``), on which the
    oracle's answers below are nonzero curve points; a smooth non-flex
    anchor a, a chord ab and a tangent at a that
    each meet the cubic in a third point distinct from their ends, a sixth
    conic point distinct from a, c, d, e, f, and a tenth curve point (third
    point of chord gh) outside the nine.

    The sixth point of the conic through a, c, d, e, f is the chord chain
    cd -> r, ef -> s, rs -> t, at -> z: six points of a cubic lie on a conic
    exactly when they sum to twice the sum of three collinear points."""
    while True:
        nine: list = []
        while len(nine) < 9:
            t = _grid_point(rng)
            if t not in nine:
                nine.append(t)
        if not _general_position(nine) or not fit_recipe_generic(nine):
            continue
        try:
            f = nullspace_fit([Point(*t) for t in nine], 3)
            conic = nullspace_fit([Point(*nine[i]) for i in (0, 2, 3, 4, 5)], 2)
        except RankDeficientError:
            continue
        a, b = nine[0], nine[1]
        grad = primitive(gradient_tangent(f, Point(*a)).coords)
        if not any(grad) or hessian_flex_oracle(f, Point(*a)):
            continue
        chord = chord_third(f, a, b)
        tan3 = tangent_third(f, a)
        on = chord_third(f, nine[6], nine[7])
        c, d, e, f_ = nine[2:6]
        sixth = third(f, a, third(f, third(f, c, d), third(f, e, f_)))
        five = (a, c, d, e, f_)
        off = _grid_point(rng)
        if (
            not all(any(t) and evaluate(f, Point(*t)) == 0 for t in (chord, tan3, on, sixth))
            or chord in (a, b)
            or sixth in five
            or evaluate(conic, Point(*sixth)) != 0
            or on in nine
            or off in nine
            or evaluate(f, Point(*off)) == 0
        ):
            continue
        return GridScene(
            nine=nine,
            on_curve=on,
            off_curve=off,
            cubic=[int(c) for c in f.coefficient_vector()],
            chord_third=chord,
            tangent=grad,
            tangent_third=tan3,
            sixth=sixth,
        )
