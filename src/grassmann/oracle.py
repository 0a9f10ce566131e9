"""Independent verification paths for the incidence constructions.

Everything here works directly on expanded polynomial forms and never
calls into :mod:`grassmann.constructions`, so agreement between the two
routes is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from .core import Line, Point, canonicalize, incidence, meet, projectively_equal
from .poly import DegenerateLineError, HomPoly, evaluate, restrict_to_line

__all__ = [
    "ZeroPolynomialError",
    "LineContainedError",
    "SingularPointError",
    "cubic_membership",
    "gradient_tangent",
    "second_point",
    "tangent_third",
    "third",
    "hessian_flex_oracle",
]


class ZeroPolynomialError(ValueError):
    pass


class LineContainedError(ValueError):
    """The whole line lies on the curve; restriction is identically zero."""


class SingularPointError(ValueError):
    """The point is a singular point of the curve: it has no tangent."""


def cubic_membership(f: HomPoly, p: Point) -> bool:
    """Exact zero test of f at p; the zero triple is no point."""
    if f.is_zero:
        raise ZeroPolynomialError("membership in the zero polynomial is vacuous")
    if p.is_zero:
        raise ValueError("the zero triple is no point")
    return evaluate(f, p) == 0


def gradient_tangent(f: HomPoly, a: Point) -> Line:
    """Tangent line at a smooth curve point, as the gradient row at a.

    Requires f(a) = 0.  Returns the zero-line exactly when a is a singular
    point of the curve.
    """
    if not cubic_membership(f, a):
        raise ValueError("the point does not lie on the curve")
    return Line(*(evaluate(f.partial(i), a) for i in range(3)))


def second_point(L: Line, avoid: Point) -> Point:
    """A point of the line L other than `avoid`, in canonical form.

    The four fixed lines tried here that differ from L meet it in at least
    two distinct points, so only the zero line has no such point.
    """
    for base in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)):
        candidate = meet(L, Line(*base))
        if not candidate.is_zero and not projectively_equal(candidate, avoid):
            return canonicalize(candidate)
    raise DegenerateLineError("the zero triple is no line")


def tangent_third(f: HomPoly, T: Line, a: Point) -> tuple[int, Point | None]:
    """Contact order m of the line T with the cubic f = 0 at its point a,
    and for m >= 2 the third intersection of T with the curve.

    f is restricted once, to T through a and ``second_point(T, a)``; with
    q that point, f(s*a + t*q) = t^m * (...), and for m >= 2 the third
    root (s:t) = (-c3:c2) gives -c3*a + c2*q, which is a itself when m = 3.
    Raises ValueError when a is not on T and :class:`LineContainedError`
    when T lies on the curve.
    """
    if incidence(T, a) != 0:
        raise ValueError("a does not lie on the line")
    q = second_point(T, a)
    form = restrict_to_line(f, a, q)
    m = next((k for k, c in enumerate(form) if c != 0), None)
    if m is None:
        raise LineContainedError("line pq lies on the curve")
    if m < 2:
        return m, None
    c2, c3 = form[2], form[3]
    return m, canonicalize(Point(*(-c3 * ac + c2 * qc for ac, qc in zip(a.coords, q.coords))))


def third(f: HomPoly, p: Point, q: Point) -> Point:
    """The third point of the cubic f = 0 on the line pq, p and q on the
    curve; for p = q the line is the tangent at p, and a flex is its own
    third point.

    This is the chord-and-tangent operation of the group law: with any
    base point, p, q and third(f, p, q) sum to a constant.  For p != q,
    f(s*p + t*q) = s*t*(c1*s + c2*t), whose third root (s:t) = (-c2:c1)
    is read off in integers; a chord tangent at an endpoint returns that
    endpoint.  Raises ValueError when a chord endpoint is off the curve,
    :class:`SingularPointError` when p = q is a singular point, and
    :class:`LineContainedError` when the line lies on the curve.
    """
    if projectively_equal(p, q):
        tangent = gradient_tangent(f, p)
        if tangent.is_zero:
            raise SingularPointError("a singular point has no tangent")
        # the gradient tangent meets the curve at p at least twice
        return tangent_third(f, tangent, p)[1]
    c0, c1, c2, c3 = restrict_to_line(f, p, q)
    if c0 != 0 or c3 != 0:
        raise ValueError("a chord endpoint does not lie on the curve")
    if c1 == 0 and c2 == 0:
        raise LineContainedError("line pq lies on the curve")
    return canonicalize(Point(*(-c2 * pc + c1 * qc for pc, qc in zip(p.coords, q.coords))))


def hessian_flex_oracle(f: HomPoly, p: Point) -> bool:
    """Whether a smooth point p of the cubic f = 0 is a flex.

    Evaluates the determinant of the matrix of second partials at p.
    """
    if gradient_tangent(f, p).is_zero:
        raise SingularPointError("p is a singular point")
    h = [[evaluate(f.partial(i).partial(j), p) for j in range(3)] for i in range(3)]
    det = (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )
    return det == 0
