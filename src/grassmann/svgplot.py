"""SVG rendering of scenes and curves.

Display only: coordinates are converted to floats for layout and the
curve is traced by sign changes of the dehomogenized polynomial on a
pixel grid.  No verdict anywhere in the package depends on these floats.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Line, Point
from .poly import HomPoly, monomials

__all__ = ["render_svg"]

_SIZE = 640
_GRID = 240


def _affine(p: Point):
    """Chart coordinates of [x0:x1:x2] as floats, or None at infinity and
    where a float cannot hold them (outside any float viewport)."""
    if p.x0 == 0:
        return None
    try:
        return (float(p.x1 / p.x0), float(p.x2 / p.x0))
    except OverflowError:
        return None


def _floats(values) -> list[float]:
    """Floats proportional to exact rationals, all divided first by the one
    power of two that brings the largest near 1: no float overflows, and
    the scale of a projective triple does not change its drawing.  The
    division is exact in binary floating point, so values that floats hold
    unscaled are drawn exactly as they would be unscaled."""
    values = [Fraction(v) for v in values]
    bits = max((v.numerator.bit_length() - v.denominator.bit_length() for v in values if v), default=0)
    scale = Fraction(2) ** bits
    return [float(v / scale) for v in values]


def _to_px(x, y, box):
    xmin, xmax, ymin, ymax = box
    px = (x - xmin) / (xmax - xmin) * _SIZE
    py = _SIZE - (y - ymin) / (ymax - ymin) * _SIZE
    return px, py


def _clip_line(L: Line, box):
    """Endpoints of the affine trace of L0 + L1*x + L2*y = 0 inside the box."""
    l0, l1, l2 = _floats(L.coords)
    xmin, xmax, ymin, ymax = box
    pts = []
    if abs(l2) > 1e-12:
        for x in (xmin, xmax):
            y = -(l0 + l1 * x) / l2
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if abs(l1) > 1e-12:
        for y in (ymin, ymax):
            x = -(l0 + l2 * y) / l1
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    return uniq[:2] if len(uniq) >= 2 else None


def _curve_segments(f: HomPoly, box):
    """Marching-squares zero-level segments of f(1, x, y) on the grid.

    Terms are summed in :func:`monomials` order, so the floats (and the
    drawing) do not depend on the order in which f's terms were built.
    """
    terms = zip(monomials(f.degree), _floats(f.coefficient_vector()))
    coeffs = [(mono, c) for mono, c in terms if c]

    def val(x, y):
        total = 0.0
        for (i, j, k), c in coeffs:
            total += c * (x ** j) * (y ** k)
        return total

    xmin, xmax, ymin, ymax = box
    dx = (xmax - xmin) / _GRID
    dy = (ymax - ymin) / _GRID
    grid = [[val(xmin + ix * dx, ymin + iy * dy) for iy in range(_GRID + 1)] for ix in range(_GRID + 1)]
    segments = []

    def interp(x1, y1, v1, x2, y2, v2):
        t = v1 / (v1 - v2)
        return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))

    for ix in range(_GRID):
        for iy in range(_GRID):
            x0 = xmin + ix * dx
            y0 = ymin + iy * dy
            corners = [
                (x0, y0, grid[ix][iy]),
                (x0 + dx, y0, grid[ix + 1][iy]),
                (x0 + dx, y0 + dy, grid[ix + 1][iy + 1]),
                (x0, y0 + dy, grid[ix][iy + 1]),
            ]
            crossings = []
            for idx in range(4):
                x1, y1, v1 = corners[idx]
                x2, y2, v2 = corners[(idx + 1) % 4]
                if v1 == 0.0:
                    crossings.append((x1, y1))
                elif (v1 < 0) != (v2 < 0):
                    crossings.append(interp(x1, y1, v1, x2, y2, v2))
            # a zero corner is also the end of its neighbouring edge's crossing
            crossings = list(dict.fromkeys(crossings))
            if len(crossings) >= 2:
                segments.append((crossings[0], crossings[1]))
    return segments


def render_svg(scene, cubic: HomPoly | None = None) -> str:
    """An SVG drawing of the scene's points and lines plus an optional curve."""
    if scene.viewport is not None:
        box = tuple(float(v) for v in scene.viewport)
    else:
        box = (-12.0, 12.0, -12.0, 12.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]

    if cubic is not None and not cubic.is_zero:
        for (x1, y1), (x2, y2) in _curve_segments(cubic, box):
            p1 = [f"{v:.2f}" for v in _to_px(x1, y1, box)]
            p2 = [f"{v:.2f}" for v in _to_px(x2, y2, box)]
            # a segment shorter than the printed precision would draw a dot
            if p1 == p2:
                continue
            parts.append(
                f'<line x1="{p1[0]}" y1="{p1[1]}" x2="{p2[0]}" y2="{p2[1]}" '
                f'stroke="#1f77b4" stroke-width="1.2"/>'
            )

    for name in sorted(scene.lines):
        seg = _clip_line(scene.lines[name], box)
        if seg is None:
            continue
        p1 = _to_px(*seg[0], box)
        p2 = _to_px(*seg[1], box)
        parts.append(
            f'<line x1="{p1[0]:.2f}" y1="{p1[1]:.2f}" x2="{p2[0]:.2f}" y2="{p2[1]:.2f}" '
            f'stroke="#444444" stroke-width="1.0"/>'
        )
        parts.append(
            f'<text x="{(p1[0] + p2[0]) / 2 + 4:.2f}" y="{(p1[1] + p2[1]) / 2 - 4:.2f}" '
            f'font-size="13" fill="#444444">{name}</text>'
        )

    for name in sorted(scene.points):
        aff = _affine(scene.points[name])
        if aff is None:
            continue
        x, y = aff
        xmin, xmax, ymin, ymax = box
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            continue
        px, py = _to_px(x, y, box)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="black"/>')
        parts.append(
            f'<text x="{px + 5:.2f}" y="{py - 5:.2f}" font-size="13" fill="black">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
