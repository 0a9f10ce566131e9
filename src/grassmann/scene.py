"""Scene files and verification reports.

A scene is a plain-text description of named points and lines with exact
rational coordinates, plus an optional viewport: an exact box with
xmin < xmax and ymin < ymax, which ``tools/plot.py`` draws.  The format
is line oriented and versioned::

    format: 1
    # comments and blank lines are ignored
    point a = 1, -2, 7/3
    line A = 0, 1, -2
    viewport = -12, 12, -12, 12

Entry names are the names of :mod:`grassmann.expr`: one ASCII letter
with an optional _<digits> subscript of ASCII digits.  Point names are
lowercase ('x' is reserved for the variable) and line names uppercase,
as :func:`grassmann.expr.name_kind` says, so an expression can refer to
every entry.  A zero triple is refused, as it is no projective point or
line.  All serialization is canonical (sorted names, reduced fractions)
so that a scene has a stable digest and reports are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Line, Point, Scalar, canonicalize, kind_of
from .expr import name_kind

__all__ = [
    "SceneError",
    "Scene",
    "Report",
    "parse_rational",
    "format_triple",
]

# each entry keyword with its class and the Scene dictionary that holds
# its entries; the keyword is the name_kind of the entry's name
_ENTRIES = {"point": (Point, "points"), "line": (Line, "lines")}


class SceneError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rational(text: str) -> Scalar:
    """An exact rational: an int when the value is integral, else a Fraction.

    A plain decimal integer is read by ``int``; everything else goes
    through ``Fraction``, which accepts the same integers.
    """
    stripped = text.strip()
    try:
        if _INTEGER.fullmatch(stripped):
            return int(stripped)
        value = Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise SceneError(f"bad rational {text!r}: {exc}") from None
    return value.numerator if value.denominator == 1 else value


def _parse_rationals(parts, lineno: int) -> tuple:
    """The rationals of an entry's comma-separated parts; a bad one is
    refused naming the entry's line."""
    try:
        return tuple(parse_rational(p) for p in parts)
    except SceneError as exc:
        raise SceneError(f"line {lineno}: {exc}") from None


def _parse_triple(text: str, lineno: int):
    """The coordinates of a point or line entry: three rationals, not all
    zero, as the zero triple is no projective point or line."""
    parts = text.split(",")
    if len(parts) != 3:
        raise SceneError(f"line {lineno}: expected three comma-separated rationals, got {text!r}")
    triple = _parse_rationals(parts, lineno)
    if not any(triple):
        raise SceneError(f"line {lineno}: the zero triple is not a point or a line")
    return triple


def format_triple(obj) -> str:
    """Canonical bracketed form of a point or line, primitive and sign-fixed."""
    cobj = canonicalize(obj)
    return "[" + ":".join(str(c) for c in cobj.coords) + "]"


@dataclass
class Scene:
    points: dict[str, Point] = field(default_factory=dict)
    lines: dict[str, Line] = field(default_factory=dict)
    viewport: tuple[Scalar, Scalar, Scalar, Scalar] | None = None

    @classmethod
    def parse(cls, text: str) -> "Scene":
        scene = cls()
        saw_format = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not saw_format:
                if line != "format: 1":
                    raise SceneError(f"line {lineno}: scene must start with 'format: 1'")
                saw_format = True
                continue
            key, _, rest = line.partition("=")
            key = key.strip()
            rest = rest.strip()
            if not rest:
                raise SceneError(f"line {lineno}: expected 'key = value'")
            kind, space, name = key.partition(" ")
            if space and kind in _ENTRIES:
                cls, attr = _ENTRIES[kind]
                name = name.strip()
                if name_kind(name) != kind:
                    raise SceneError(f"line {lineno}: bad {kind} name {name!r}")
                entries = getattr(scene, attr)
                if name in entries:
                    raise SceneError(f"line {lineno}: duplicate {kind} {name!r}")
                entries[name] = cls(*_parse_triple(rest, lineno))
            elif key == "viewport":
                if scene.viewport is not None:
                    raise SceneError(f"line {lineno}: duplicate viewport")
                parts = rest.split(",")
                if len(parts) != 4:
                    raise SceneError(f"line {lineno}: viewport needs four rationals")
                bounds = _parse_rationals(parts, lineno)
                xmin, xmax, ymin, ymax = bounds
                if not (xmin < xmax and ymin < ymax):
                    raise SceneError(f"line {lineno}: viewport needs xmin < xmax and ymin < ymax")
                scene.viewport = bounds
            else:
                raise SceneError(f"line {lineno}: unknown entry {key!r}")
        if not saw_format:
            raise SceneError("empty scene: missing 'format: 1' header")
        return scene

    @classmethod
    def load(cls, path) -> "Scene":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def serialize(self) -> str:
        out = ["format: 1"]
        for kind, (_, attr) in _ENTRIES.items():
            entries = getattr(self, attr)
            for name in sorted(entries):
                coords = ", ".join(str(c) for c in entries[name].coords)
                out.append(f"{kind} {name} = {coords}")
        if self.viewport is not None:
            out.append("viewport = " + ", ".join(str(c) for c in self.viewport))
        return "\n".join(out) + "\n"

    def digest(self) -> str:
        return "sha256:" + hashlib.sha256(self.serialize().encode()).hexdigest()

    def point(self, name: str) -> Point:
        try:
            return self.points[name]
        except KeyError:
            raise SceneError(f"scene has no point named {name!r}") from None

    def nine_points(self):
        """The conventionally named points a..i, in order."""
        names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
        missing = [n for n in names if n not in self.points]
        if missing:
            raise SceneError(f"scene is missing points: {', '.join(missing)}")
        return [self.points[n] for n in names]


@dataclass
class Report:
    """Outcome of one command: named outputs, verification checks, diagnostics."""

    command: str
    inputs_digest: str
    outputs: list[tuple[str, str]] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def add_output(self, name: str, value: str) -> None:
        self.outputs.append((name, value))

    def add_triple(self, name: str, obj) -> None:
        """An output named by the object's kind, 'point' or 'line', and `name`."""
        self.outputs.append((f"{kind_of(obj)} {name}", format_triple(obj)))

    def add_check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def add_diagnostic(self, text: str) -> None:
        self.diagnostics.append(text)

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def render(self) -> str:
        out = [f"command: {self.command}", f"inputs: {self.inputs_digest}"]
        for name, value in self.outputs:
            out.append(f"output {name} = {value}")
        for name, flag in self.checks:
            out.append(f"check {name}: {'pass' if flag else 'FAIL'}")
        for diag in self.diagnostics:
            out.append(f"diagnostic: {diag}")
        out.append(f"status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(out) + "\n"
