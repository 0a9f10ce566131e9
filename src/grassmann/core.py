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

Each point and line keeps its canonical key, the primitive sign-fixed
integer triple that :func:`canonicalize` reduces it to, on the object:
the key is computed on first use and read from then on, so a point that
is deduplicated, cached or compared by key many times is reduced once.
Objects are immutable, so the key never goes stale.
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
]

_SCALAR_TYPES = (int, Fraction)


class KindError(TypeError):
    """Operands have kinds for which the operation is undefined."""


class _Triple:
    """An immutable coordinate triple; equal only to a triple of its own class.

    The `_key` slot holds the canonical key once _key() has computed it.
    """

    __slots__ = ("coords", "_key")

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
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        x0, x1, x2 = self.coords
        return f"{type(self).__name__}({x0!s}, {x1!s}, {x2!s})"


_set_coords = _Triple.coords.__set__
_set_key = _Triple._key.__set__


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
    if (type(g), type(h)) not in ((Line, Point), (Point, Line)):
        raise KindError(f"incidence needs a line and a point, got {kind_of(g)}/{kind_of(h)}")
    return _dot(g.coords, h.coords)


def bracket(a: GeomObject, b: GeomObject, c: GeomObject) -> Scalar:
    """Triple product of three points or three lines.

    Vanishes when operands repeat, three points are collinear, or three
    lines are concurrent.
    """
    if not (type(a) is type(b) is type(c) in (Point, Line)):
        raise KindError("bracket needs three points or three lines")
    return _dot(a.coords, _cross(b.coords, c.coords))


def scale(s: Scalar, g) -> GeomObject:
    """Scalar multiple of a point or line by an exact scalar (an ``int`` or
    a ``Fraction``); scaling by zero gives the zero object."""
    if not isinstance(s, _SCALAR_TYPES):
        raise KindError(f"cannot scale by {s!r}: not an int or a Fraction")
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


def projectively_equal(g: GeomObject, h: GeomObject) -> bool:
    """Equality up to a nonzero scalar factor.

    Zero objects are equivalent only to the zero object of the same kind,
    so two scalars are equivalent when both are zero or both are nonzero.
    """
    kg, kh = kind_of(g), kind_of(h)
    if kg != kh:
        raise KindError(f"cannot compare {kg} with {kh}")
    if kg == "scalar":
        return (g == 0) == (h == 0)
    if g.is_zero or h.is_zero:
        return g.is_zero and h.is_zero
    return all(c == 0 for c in _cross(g.coords, h.coords))


def _canonical(coords):
    """The primitive, sign-fixed integer form of a nonzero coordinate triple.

    Clears denominators (only when a Fraction is present), divides out the
    gcd of the entries and makes the first nonzero entry positive.  A
    triple that is already in that form is returned as is (the same tuple).
    """
    x0, x1, x2 = coords
    if not (type(x0) is int and type(x1) is int and type(x2) is int):
        denom_lcm = lcm(x0.denominator, x1.denominator, x2.denominator)
        x0, x1, x2 = int(x0 * denom_lcm), int(x1 * denom_lcm), int(x2 * denom_lcm)
        coords = None
    common = gcd(x0, x1, x2)
    if (x0 or x1 or x2) < 0:
        common = -common
    if common == 1 and coords is not None:
        return coords
    return (x0 // common, x1 // common, x2 // common)


def _key(g) -> tuple:
    """The canonical key of a point or line: :func:`_canonical` of its
    coordinates, or the zero triple itself for a zero object.  Computed on
    first use and kept on the object."""
    try:
        return g._key
    except AttributeError:
        pass
    coords = g.coords
    key = _canonical(coords) if any(coords) else coords
    _set_key(g, key)
    return key


def _keyed(cls, t: tuple):
    """A point or line of class `cls` on the triple t, which is already
    canonical (or zero), with its coordinates kept as its key."""
    g = cls(*t)
    _set_key(g, g.coords)
    return g


def canonicalize(g):
    """Reduce a point or line to its primitive integer representative.

    The reduction is the object's key (:func:`_key`); the result is
    projectively equal to the input and keeps the same key.  A triple that
    is already primitive and sign-fixed is returned as is, and so are
    scalars and zero objects.
    """
    if isinstance(g, _Triple):
        key = _key(g)
        return g if key is g.coords else _keyed(type(g), key)
    if isinstance(g, _SCALAR_TYPES):
        return g
    raise KindError(f"cannot canonicalize {g!r}")
