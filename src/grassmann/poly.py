"""Homogeneous polynomials in x0, x1, x2 over exact rationals.

Provides the symbolic counterparts of the cross/dot arithmetic in
:mod:`grassmann.core` (so incidence expressions containing the variable
point x can be expanded to curve equations), plus the exact linear algebra
used as an independent oracle: fitting a conic or cubic through points by
computing the nullspace of the monomial-evaluation matrix, and restricting
a form to a line to expose its roots there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .core import Line, Point, _cross, canonicalize

__all__ = [
    "HomPoly",
    "PolyVector",
    "RankDeficientError",
    "DegenerateLineError",
    "monomials",
    "poly_cross",
    "poly_dot",
    "evaluate",
    "nullspace_fit",
    "restrict_to_line",
    "binary_eval",
    "binary_deflate",
]


class RankDeficientError(ValueError):
    """The point set does not determine a unique curve."""

    def __init__(self, rank: int, needed: int):
        self.rank = rank
        self.needed = needed
        super().__init__(f"rank {rank} < {needed}: degenerate configuration")


class DegenerateLineError(ValueError):
    """Two projectively equal points do not span a line."""


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


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
    """A homogeneous polynomial stored as a sparse exponent-triple map."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        terms = {}
        for mono, c in (coeffs or {}).items():
            c = _frac(c)
            if c == 0:
                continue
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            terms[mono] = c
        self.degree = degree
        self.coeffs = terms

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, {})

    @classmethod
    def constant(cls, value) -> "HomPoly":
        return cls(0, {(0, 0, 0): _frac(value)})

    @classmethod
    def variable(cls, i: int) -> "HomPoly":
        mono = tuple(1 if j == i else 0 for j in range(3))
        return cls(1, {mono: Fraction(1)})

    @classmethod
    def from_coefficient_vector(cls, degree: int, vec) -> "HomPoly":
        return cls(degree, dict(zip(monomials(degree), vec)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, mono) -> Fraction:
        return self.coeffs.get(tuple(mono), Fraction(0))

    def coefficient_vector(self) -> list[Fraction]:
        return [self.coefficient(m) for m in monomials(self.degree)]

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return HomPoly(self.degree, out)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.degree, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            out: dict = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    s = out.get(m, Fraction(0)) + c1 * c2
                    if s == 0:
                        out.pop(m, None)
                    else:
                        out[m] = s
            return HomPoly(self.degree + other.degree, out)
        c = _frac(other)
        if c == 0:
            return HomPoly.zero(self.degree)
        return HomPoly(self.degree, {m: c * v for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def partial(self, i: int) -> "HomPoly":
        """Partial derivative with respect to x_i."""
        out = {}
        for mono, c in self.coeffs.items():
            if mono[i] == 0:
                continue
            m = list(mono)
            e = m[i]
            m[i] -= 1
            out[tuple(m)] = c * e
        return HomPoly(max(self.degree - 1, 0), out)

    def primitive(self) -> "HomPoly":
        """Integer coefficients with gcd 1, first nonzero coefficient positive.

        The result cuts out the same curve; handy for stable serialization.
        """
        if self.is_zero:
            return self
        vec = self.coefficient_vector()
        denom_lcm = 1
        for c in vec:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in vec]
        common = 0
        for v in ints:
            common = gcd(common, abs(v))
        ints = [v // common for v in ints]
        first = next(v for v in ints if v != 0)
        if first < 0:
            ints = [-v for v in ints]
        return HomPoly.from_coefficient_vector(self.degree, [Fraction(v) for v in ints])

    def __call__(self, p) -> Fraction:
        return evaluate(self, p)

    def __repr__(self):
        if self.is_zero:
            return f"HomPoly(degree={self.degree}, 0)"
        parts = []
        for mono in monomials(self.degree):
            c = self.coeffs.get(mono)
            if c is None:
                continue
            vars_ = "*".join(f"x{i}^{e}" for i, e in enumerate(mono) if e)
            parts.append(f"{c}*{vars_}" if vars_ else str(c))
        return f"HomPoly({' + '.join(parts)})"


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

    @classmethod
    def constant(cls, triple) -> "PolyVector":
        coords = triple.coords if isinstance(triple, (Point, Line)) else tuple(triple)
        return cls(*(HomPoly.constant(c) for c in coords))

    @classmethod
    def variable(cls) -> "PolyVector":
        return cls(HomPoly.variable(0), HomPoly.variable(1), HomPoly.variable(2))

    def substitute(self, p) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(evaluate(f, p) for f in self.entries)


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


def evaluate(f: HomPoly, p) -> Fraction:
    """Exact value of f at a point (or raw coordinate triple)."""
    coords = p.coords if isinstance(p, (Point, Line)) else tuple(p)
    total = Fraction(0)
    for (i, j, k), c in f.coeffs.items():
        total += c * coords[0] ** i * coords[1] ** j * coords[2] ** k
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
    :class:`RankDeficientError`.
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
        cp = canonicalize(p if isinstance(p, Point) else Point(*p))
        coords = cp.coords
        rows.append(
            [int(coords[0] ** i * coords[1] ** j * coords[2] ** k) for (i, j, k) in monos]
        )
    rank, pivots, ech = _bareiss(rows)
    if rank < needed:
        raise RankDeficientError(rank, needed)
    free = next(c for c in range(len(monos)) if c not in pivots)
    x = [Fraction(0)] * len(monos)
    x[free] = Fraction(1)
    for i in reversed(range(rank)):
        col = pivots[i]
        s = sum((ech[i][j] * x[j] for j in range(col + 1, len(monos)) if x[j] != 0), Fraction(0))
        x[col] = -s / Fraction(ech[i][col])
    return HomPoly.from_coefficient_vector(degree, x).primitive()


def restrict_to_line(f: HomPoly, p: Point, q: Point) -> list[Fraction]:
    """The binary form g(s, t) = f(s*p + t*q).

    Returned as coefficients [c0, ..., cd] with c_m multiplying
    s^(d-m) * t^m; roots (s:t) of g correspond to intersections of the
    line pq with the curve f = 0.
    """
    if p.is_zero or q.is_zero or all(c == 0 for c in _cross(p.coords, q.coords)):
        raise DegenerateLineError("p and q do not span a line")
    d = f.degree
    out = [Fraction(0)] * (d + 1)
    lins = [(p.coords[i], q.coords[i]) for i in range(3)]
    for (i, j, k), c in f.coeffs.items():
        term = [Fraction(1)]
        for e, lin in zip((i, j, k), lins):
            for _ in range(e):
                term = _binary_mul_linear(term, lin)
        for m, v in enumerate(term):
            out[m] += c * v
    return out


def _binary_mul_linear(form, lin):
    """Multiply a binary form (list over powers of t) by a*s + b*t."""
    a, b = lin
    out = [Fraction(0)] * (len(form) + 1)
    for m, c in enumerate(form):
        if c == 0:
            continue
        out[m] += c * a
        out[m + 1] += c * b
    return out


def binary_eval(form, s, t) -> Fraction:
    d = len(form) - 1
    return sum(c * s ** (d - m) * t ** m for m, c in enumerate(form))


def binary_deflate(form, s0, t0) -> list[Fraction]:
    """Exact division of a binary form by the linear factor of root (s0:t0).

    Raises ValueError when (s0:t0) is not actually a root.
    """
    s0, t0 = _frac(s0), _frac(t0)
    d = len(form) - 1
    if binary_eval(form, s0, t0) != 0:
        raise ValueError("(s0:t0) is not a root")
    # divide by t0*s - s0*t
    if t0 != 0:
        q = [Fraction(0)] * d
        rem = list(form)
        for m in range(d):
            q[m] = rem[m] / t0
            rem[m + 1] += q[m] * s0
        if rem[d] != 0:
            raise ValueError("nonzero remainder")
        return q
    # root (1:0): factor is -s0*t, so t divides the form
    if form[0] != 0:
        raise ValueError("(1:0) is not a root")
    return [c / (-s0) for c in form[1:]]
