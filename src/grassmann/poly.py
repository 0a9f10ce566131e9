"""Homogeneous polynomials in x0, x1, x2 over exact rationals.

Provides the symbolic counterparts of the cross/dot arithmetic in
:mod:`grassmann.core` (so incidence expressions containing the variable
point x can be expanded to curve equations), plus the exact linear algebra
used as an independent oracle: fitting a conic or cubic through points by
computing the nullspace of the monomial-evaluation matrix, and restricting
a form to a line to expose its roots there.

Coefficients are kept exactly as given, like coordinates in
:mod:`grassmann.core`: integral inputs stay plain ``int`` through
``+``, ``-``, ``*``, :meth:`HomPoly.partial`, :meth:`HomPoly.primitive`,
:func:`evaluate`, :func:`restrict_to_line`, :func:`poly_cross` and
:func:`poly_dot`.  ``nullspace_fit`` back-substitutes in integers, so a
``Fraction`` appears only where an input already holds one.  The public
coefficient accessors (:attr:`HomPoly.coeffs`,
:meth:`HomPoly.coefficient_vector`) return ``Fraction`` values, so ``/`` on
them stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .core import _SCALAR_TYPES, KindError, Line, Point, Scalar, _cross, canonicalize

__all__ = [
    "HomPoly",
    "PolyVector",
    "RankDeficientError",
    "DegenerateLineError",
    "monomials",
    "poly_cross",
    "poly_dot",
    "poly_scale",
    "evaluate",
    "nullspace_fit",
    "restrict_to_line",
]


class RankDeficientError(ValueError):
    """The point set does not determine a unique curve."""

    def __init__(self, rank: int, needed: int):
        self.rank = rank
        self.needed = needed
        super().__init__(f"rank {rank} < {needed}: degenerate configuration")


class DegenerateLineError(ValueError):
    """Two projectively equal points do not span a line."""


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of the given total degree, lexicographically descending.

    For degree 3 this is the usual coefficient order x0^3, x0^2*x1,
    x0^2*x2, x0*x1^2, x0*x1*x2, x0*x2^2, x1^3, x1^2*x2, x1*x2^2, x2^3.
    """
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return tuple(out)


class HomPoly:
    """A homogeneous polynomial stored as a sparse exponent-triple map.

    ``_terms`` maps each monomial to its nonzero coefficient, exactly as
    given.  Every form is built by ``__init__``, which drops zero
    coefficients and refuses a monomial of another degree (``ValueError``)
    or a coefficient that is not an ``int`` or a ``Fraction``
    (:class:`~grassmann.core.KindError`).
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, coeffs=None):
        terms = {}
        for mono, c in (coeffs or {}).items():
            if not isinstance(c, _SCALAR_TYPES):
                raise KindError(f"coefficient {c!r} is not an int or a Fraction")
            if c == 0:
                continue
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            terms[mono] = c
        self.degree = degree
        self._terms = terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def coeffs(self) -> dict[tuple[int, int, int], Fraction]:
        """The nonzero coefficients in :func:`monomials` order, as ``Fraction`` values."""
        terms = self._terms
        return {m: Fraction(terms[m]) for m in monomials(self.degree) if m in terms}

    def coefficient_vector(self) -> list[Fraction]:
        return [Fraction(c) for c in self._vector()]

    def _vector(self) -> list[Scalar]:
        """Coefficients in :func:`monomials` order, exactly as stored."""
        terms = self._terms
        return [terms.get(m, 0) for m in monomials(self.degree)]

    def __eq__(self, other):
        # every term has its form's degree, so equal terms mean equal degrees
        # or two zero forms
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return self._combine(other, False)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return self._combine(other, True)

    def _combine(self, other: "HomPoly", subtract: bool) -> "HomPoly":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0)
            out[mono] = s - c if subtract else s + c
        return HomPoly(self.degree, out)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.degree, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            out: dict = {}
            get = out.get
            others = other._terms.items()
            for (i1, j1, k1), c1 in self._terms.items():
                for (i2, j2, k2), c2 in others:
                    m = (i1 + i2, j1 + j2, k1 + k2)
                    out[m] = get(m, 0) + c1 * c2
            return HomPoly(self.degree + other.degree, out)
        if not isinstance(other, _SCALAR_TYPES):
            raise KindError(f"cannot multiply a form by {other!r}: not an int or a Fraction")
        return HomPoly(self.degree, {m: other * v for m, v in self._terms.items()})

    __rmul__ = __mul__

    def partial(self, i: int) -> "HomPoly":
        """Partial derivative with respect to x_i."""
        out = {}
        for mono, c in self._terms.items():
            e = mono[i]
            if e == 0:
                continue
            m = list(mono)
            m[i] = e - 1
            out[tuple(m)] = c * e
        return HomPoly(max(self.degree - 1, 0), out)

    def primitive(self) -> "HomPoly":
        """Integer coefficients with gcd 1, first nonzero coefficient positive.

        The result cuts out the same curve; handy for stable serialization.
        """
        if self.is_zero:
            return self
        return HomPoly(self.degree, dict(zip(monomials(self.degree), _primitive(self._vector()))))

    def __repr__(self):
        if self.is_zero:
            return f"HomPoly(degree={self.degree}, 0)"
        parts = []
        for mono in monomials(self.degree):
            c = self._terms.get(mono)
            if c is None:
                continue
            vars_ = "*".join(f"x{i}^{e}" for i, e in enumerate(mono) if e)
            parts.append(f"{c}*{vars_}" if vars_ else str(c))
        return f"HomPoly({' + '.join(parts)})"


def _primitive(vec: list) -> list[int]:
    """A coefficient list that is not all zero, scaled to coprime integers
    with its first nonzero entry positive."""
    if any(type(c) is not int for c in vec):
        denom_lcm = lcm(*(c.denominator for c in vec))
        vec = [int(c * denom_lcm) for c in vec]
    common = gcd(*vec)
    if next(v for v in vec if v) < 0:
        common = -common
    return [v // common for v in vec]


@dataclass(frozen=True)
class PolyVector:
    """A symbolic point or line: a triple of equal-degree homogeneous forms."""

    e0: HomPoly
    e1: HomPoly
    e2: HomPoly

    def __post_init__(self):
        degs = {p.degree for p in self.entries if not p.is_zero}
        if len(degs) > 1:
            raise ValueError("entries must share one degree")

    @property
    def entries(self) -> tuple[HomPoly, HomPoly, HomPoly]:
        return (self.e0, self.e1, self.e2)

    @property
    def degree(self) -> int:
        for p in self.entries:
            if not p.is_zero:
                return p.degree
        return self.e0.degree

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.entries)

    def primitive(self) -> "PolyVector":
        """The triple divided by one common content, so that the ratio of
        its entries is kept: integer coefficients with gcd 1 over all three
        entries, the first nonzero one positive (e0, e1, e2 in turn, each
        in :func:`monomials` order)."""
        if self.is_zero:
            return self
        flat = iter(_primitive([c for p in self.entries for c in p._vector()]))
        return PolyVector(
            *(HomPoly(p.degree, {m: next(flat) for m in monomials(p.degree)}) for p in self.entries)
        )

    @classmethod
    def constant(cls, obj: Point | Line) -> "PolyVector":
        return cls(*(HomPoly(0, {(0, 0, 0): c}) for c in obj.coords))

    @classmethod
    def variable(cls) -> "PolyVector":
        return cls(*(HomPoly(1, {m: 1}) for m in monomials(1)))


def poly_cross(u: PolyVector, v: PolyVector) -> PolyVector:
    """Entrywise cross-product formula; degree adds."""
    a, b, c = u.entries
    d, e, f = v.entries
    return PolyVector(b * f - c * e, c * d - a * f, a * e - b * d)


def poly_dot(u: PolyVector, v: PolyVector) -> HomPoly:
    """Sum of entrywise products; degree adds."""
    a, b, c = u.entries
    d, e, f = v.entries
    return a * d + b * e + c * f


def poly_scale(s: HomPoly, v: PolyVector) -> PolyVector:
    return PolyVector(s * v.e0, s * v.e1, s * v.e2)


def _powers(x, degree: int) -> list:
    """[1, x, x^2, ..., x^degree]."""
    out = [1]
    for _ in range(degree):
        out.append(out[-1] * x)
    return out


def evaluate(f: HomPoly, p: Point | Line) -> Scalar:
    """Exact value of f at a point or line."""
    p0, p1, p2 = (_powers(x, f.degree) for x in p.coords)
    total = 0
    for (i, j, k), c in f._terms.items():
        total += c * p0[i] * p1[j] * p2[k]
    return total


def _bareiss(rows: list[list[int]]):
    """Fraction-free row reduction; returns (rank, pivot columns, echelon rows)."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    prev = 1
    row = 0
    pivots: list[int] = []
    for col in range(n_cols):
        if row == n_rows:
            break
        piv = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, n_rows):
            for cc in range(col + 1, n_cols):
                m[r][cc] = (m[row][col] * m[r][cc] - m[r][col] * m[row][cc]) // prev
            m[r][col] = 0
        prev = m[row][col]
        pivots.append(col)
        row += 1
    return row, pivots, m


def nullspace_fit(points, degree: int) -> HomPoly:
    """The unique curve of the given degree through the points.

    Five points determine a conic, nine a cubic.  The monomial-evaluation
    matrix is reduced by fraction-free elimination; a rank short of the
    point count signals a degenerate configuration and raises
    :class:`RankDeficientError`.  The result is primitive (see
    :meth:`HomPoly.primitive`).
    """
    needed = {2: 5, 3: 9}.get(degree)
    if needed is None:
        raise ValueError("degree must be 2 or 3")
    points = list(points)
    if len(points) != needed:
        raise ValueError(f"degree {degree} needs exactly {needed} points")
    monos = monomials(degree)
    rows = []
    for p in points:
        coords = canonicalize(p).coords
        rows.append(
            [int(coords[0] ** i * coords[1] ** j * coords[2] ** k) for (i, j, k) in monos]
        )
    rank, pivots, ech = _bareiss(rows)
    if rank < needed:
        raise RankDeficientError(rank, needed)
    # back-substitute in integers: x stays an integer multiple of the
    # solution, scaled up by just enough at each pivot to keep it integral
    free = next(c for c in range(len(monos)) if c not in pivots)
    x = [0] * len(monos)
    x[free] = 1
    for i in reversed(range(rank)):
        col = pivots[i]
        row = ech[i]
        s = sum(row[j] * x[j] for j in range(col + 1, len(monos)) if x[j])
        pivot = row[col]
        g = gcd(s, pivot)
        if pivot // g != 1:
            x = [v * (pivot // g) for v in x]
        x[col] = -s // g
    return HomPoly(degree, dict(zip(monos, x))).primitive()


def restrict_to_line(f: HomPoly, p: Point, q: Point) -> list[Scalar]:
    """The binary form g(s, t) = f(s*p + t*q).

    Returned as coefficients [c0, ..., cd] with c_m multiplying
    s^(d-m) * t^m; roots (s:t) of g correspond to intersections of the
    line pq with the curve f = 0.
    """
    if p.is_zero or q.is_zero or all(c == 0 for c in _cross(p.coords, q.coords)):
        raise DegenerateLineError("p and q do not span a line")
    d = f.degree
    # per coordinate, the binary forms (p_i*s + q_i*t)^e for e = 0..d
    pw0, pw1, pw2 = (_linear_powers(pc, qc, d) for pc, qc in zip(p.coords, q.coords))
    # f = sum over k of x2^k * h_k(x0, x1): restrict each h_k, then
    # multiply by the power of x2 (the power 0 is the form [1])
    h = [[0] * (d - k + 1) for k in range(d + 1)]
    for (i, j, k), c in f._terms.items():
        hk = h[k]
        for m0, v0 in enumerate(pw0[i]):
            cv0 = c * v0
            for m1, v1 in enumerate(pw1[j], m0):
                hk[m1] += cv0 * v1
    out = h[0]
    for hk, powers in zip(h[1:], pw2[1:]):
        for m1, w in enumerate(hk):
            if w == 0:
                continue
            for m2, v2 in enumerate(powers, m1):
                out[m2] += w * v2
    return out


def _linear_powers(a, b, degree: int) -> list[list[Scalar]]:
    """[(a*s + b*t)^e for e = 0..degree], each a list over powers of t."""
    out = [[1]]
    for e in range(1, degree + 1):
        prev = out[-1]
        row = [prev[0] * a]
        for m in range(1, e):
            row.append(prev[m - 1] * b + prev[m] * a)
        row.append(prev[-1] * b)
        out.append(row)
    return out
