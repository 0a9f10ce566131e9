"""Exact homogeneous-coordinate arithmetic in the projective plane.

Points and lines are triples of exact numbers, kept exactly as given:
integral inputs stay plain ``int`` through every join, meet, incidence
and bracket, and a ``Fraction`` appears only where a coordinate really is
non-integral.  Coordinates only matter up to a common nonzero factor, so
integer inputs never need denominators.  The all-zero triple is kept as
an explicit degenerate marker (the zero-point and the zero-line), which
makes every operation below total: a degenerate construction flows through
subsequent arithmetic as a zero object instead of raising.

Scalars use an equivalence coarser than equality: all nonzero values form
one class and zero forms the other.  Incidence tests only ever ask which
class a scalar is in, so results stay well defined even though individual
coordinates are only fixed up to a common nonzero factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Scalar = Union[int, Fraction]

__all__ = [
    "Scalar",
    "Point",
    "Line",
    "GeomObject",
    "ZERO_POINT",
    "ZERO_LINE",
    "KindError",
    "meet",
    "join",
    "incidence",
    "bracket",
    "scale",
    "product",
    "projectively_equal",
    "canonicalize",
    "kind_of",
    "scalar_equiv",
]

_SCALAR_TYPES = (int, Fraction)


class KindError(TypeError):
    """Operands have kinds for which the operation is undefined."""


class _Triple:
    """An immutable coordinate triple; equal only to a triple of its own class."""

    __slots__ = ("coords",)

    def __init__(self, x0: Scalar, x1: Scalar, x2: Scalar):
        _set_coords(self, (x0, x1, x2))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self.coords)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    @property
    def x0(self) -> Scalar:
        return self.coords[0]

    @property
    def x1(self) -> Scalar:
        return self.coords[1]

    @property
    def x2(self) -> Scalar:
        return self.coords[2]

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        x0, x1, x2 = self.coords
        return f"{type(self).__name__}({x0!s}, {x1!s}, {x2!s})"


_set_coords = _Triple.coords.__set__


class Point(_Triple):
    """A point [x0:x1:x2]; (0,0,0) is the degenerate zero-point."""

    __slots__ = ()


class Line(_Triple):
    """A line with equation x0*L0 + x1*L1 + x2*L2 = 0; (0,0,0) is the zero-line."""

    __slots__ = ()


GeomObject = Union[Point, Line, Scalar]

ZERO_POINT = Point(0, 0, 0)
ZERO_LINE = Line(0, 0, 0)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def kind_of(g: GeomObject) -> str:
    if isinstance(g, Point):
        return "point"
    if isinstance(g, Line):
        return "line"
    if isinstance(g, _SCALAR_TYPES):
        return "scalar"
    raise KindError(f"not a geometric object: {g!r}")


def meet(L: Line, M: Line) -> Point:
    """Intersection point of two lines (cross product of coefficient triples).

    Total: identical or degenerate inputs yield the zero-point.
    """
    return Point(*_cross(L.coords, M.coords))


def join(p: Point, q: Point) -> Line:
    """Line through two points (cross product of coordinate triples).

    Total: the join of a point with itself is the zero-line.
    """
    return Line(*_cross(p.coords, q.coords))


def incidence(g, h) -> Scalar:
    """Dot product of a line with a point; zero exactly when incident."""
    if isinstance(g, Line) and isinstance(h, Point):
        return _dot(g.coords, h.coords)
    if isinstance(g, Point) and isinstance(h, Line):
        return _dot(g.coords, h.coords)
    raise KindError(f"incidence needs a line and a point, got {kind_of(g)}/{kind_of(h)}")


def bracket(a: GeomObject, b: GeomObject, c: GeomObject) -> Scalar:
    """Triple product of three points or three lines.

    Vanishes when operands repeat, three points are collinear, or three
    lines are concurrent.
    """
    if isinstance(a, Point) and isinstance(b, Point) and isinstance(c, Point):
        pass
    elif isinstance(a, Line) and isinstance(b, Line) and isinstance(c, Line):
        pass
    else:
        raise KindError("bracket needs three points or three lines")
    return _dot(a.coords, _cross(b.coords, c.coords))


def scale(s: Scalar, g) -> GeomObject:
    """Scalar multiple of a point or line; scaling by zero gives the zero object."""
    if isinstance(g, (Point, Line)):
        return type(g)(*(s * c for c in g.coords))
    raise KindError(f"cannot scale a {kind_of(g)}")


def product(g: GeomObject, h: GeomObject) -> GeomObject:
    """The typed juxtaposition product.

    point*point -> join, line*line -> meet, line*point (either order) ->
    incidence scalar, scalar*object -> scaling.  scalar*scalar is a kind
    error; it never arises from a well-formed incidence expression.
    """
    if isinstance(g, Point):
        if isinstance(h, Point):
            return join(g, h)
        if isinstance(h, Line):
            return incidence(g, h)
        return scale(h, g)
    if isinstance(g, Line):
        if isinstance(h, Line):
            return meet(g, h)
        if isinstance(h, Point):
            return incidence(g, h)
        return scale(h, g)
    if isinstance(g, _SCALAR_TYPES):
        if isinstance(h, (Point, Line)):
            return scale(g, h)
        raise KindError("scalar*scalar has no geometric meaning")
    raise KindError(f"not a geometric object: {g!r}")


def scalar_equiv(a: Scalar, b: Scalar) -> bool:
    """Scalars are equivalent when both are zero or both are nonzero."""
    return (a == 0) == (b == 0)


def projectively_equal(g: GeomObject, h: GeomObject) -> bool:
    """Equality up to a nonzero scalar factor.

    Zero objects are equivalent only to the zero object of the same kind.
    """
    kg, kh = kind_of(g), kind_of(h)
    if kg != kh:
        raise KindError(f"cannot compare {kg} with {kh}")
    if kg == "scalar":
        return scalar_equiv(g, h)
    if g.is_zero or h.is_zero:
        return g.is_zero and h.is_zero
    return all(c == 0 for c in _cross(g.coords, h.coords))


def canonicalize(g):
    """Reduce a point or line to its primitive integer representative.

    Clears denominators (only when a Fraction is present), divides out the
    gcd of the entries and makes the first nonzero entry positive; the
    result is projectively equal to the input.  A triple that is already
    primitive and sign-fixed is returned as is, and so are scalars and
    zero objects.
    """
    if isinstance(g, _SCALAR_TYPES) or g.is_zero:
        return g
    coords = g.coords
    if any(type(c) is not int for c in coords):
        denom_lcm = lcm(*(c.denominator for c in coords))
        coords = tuple(int(c * denom_lcm) for c in coords)
    x0, x1, x2 = coords
    common = gcd(x0, x1, x2)
    if (x0 or x1 or x2) < 0:
        common = -common
    if common == 1 and coords is g.coords:
        return g
    return type(g)(x0 // common, x1 // common, x2 // common)
