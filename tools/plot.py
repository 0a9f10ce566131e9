"""SVG drawing of a scene: its points, its lines and the cubic through a..i.

Run from the repository root::

    PYTHONPATH=src python tools/plot.py --in FILE [--out FILE]

Display only: coordinates are converted to floats for layout and the
curve is traced by sign changes of the dehomogenized polynomial on a
pixel grid.  The package decides every verdict exactly and holds no
float; this script is a client of its public names, and nothing it
draws feeds back into a verdict.

The box drawn is the scene's exact ``viewport``, or -12..12 on both axes
without one.  Exit codes: 0 drawn, 2 the nine labels fix no cubic
(degenerate fit), 3 a scene, I/O or viewport error: a viewport whose
bounds, width or height no float holds, one that is empty in floats, or
one on which floats cannot evaluate the curve.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from grassmann.constructions import ConstructionError, NinePointLabels, expand_cubic, fit_nine_points
from grassmann.core import Line, Point
from grassmann.poly import HomPoly, monomials
from grassmann.scene import Scene, SceneError

_SIZE = 640
_GRID = 240
_DEFAULT_BOX = (-12.0, 12.0, -12.0, 12.0)


def _box(scene: Scene):
    """The scene's viewport in floats, refused unless floats hold its
    bounds, width and height and keep it nonempty."""
    if scene.viewport is None:
        return _DEFAULT_BOX
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in scene.viewport)
    except OverflowError:
        raise SceneError("viewport bounds must fit in a float") from None
    if not (xmin < xmax and ymin < ymax):
        raise SceneError("viewport needs xmin < xmax and ymin < ymax in floats")
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise SceneError("viewport width and height must fit in a float")
    return xmin, xmax, ymin, ymax


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
    A box on which some grid value overflows a float is refused.
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
    try:
        grid = [[val(xmin + ix * dx, ymin + iy * dy) for iy in range(_GRID + 1)] for ix in range(_GRID + 1)]
        finite = all(math.isfinite(v) for column in grid for v in column)
    except OverflowError:
        finite = False
    if not finite:
        raise SceneError("viewport too large: floats cannot evaluate the curve on it")
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


def render_svg(scene: Scene, box, cubic: HomPoly | None = None) -> str:
    """An SVG drawing of the scene's points and lines in the float box,
    plus an optional curve."""
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


def plot(scene: Scene) -> str:
    """The drawing of the scene, with the cubic through its labels a..i
    when it has all nine.  The box is checked before the fit."""
    box = _box(scene)
    try:
        labels = NinePointLabels.from_points(scene.nine_points())
    except SceneError:
        return render_svg(scene, box)
    return render_svg(scene, box, expand_cubic(fit_nine_points(labels)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plot.py", description="Draw a grassmann scene and the cubic through a..i as SVG."
    )
    parser.add_argument("--in", dest="infile", help="scene file")
    parser.add_argument("--out", dest="outfile", help="write the SVG here instead of stdout")
    args = parser.parse_args(argv)
    try:
        if not args.infile:
            raise SceneError("plot needs --in FILE")
        svg = plot(Scene.load(args.infile))
        if args.outfile:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(svg)
        else:
            sys.stdout.write(svg)
    except (SceneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
