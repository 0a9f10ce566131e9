"""Per-layer tracing by patching the package's public functions from outside.

Every module of the package that holds one of the traced function objects
(under any name, including the names ``constructions``, ``cli``,
``generate`` and ``oracle`` import) gets a wrapper in its place, and the
originals are put back on exit.  Layer calls become spans
``(op, id, parent, name, start, end)`` kept in memory; ``core`` calls are
too many and too small for spans, so they are only counted and timed, and
their time is charged to the enclosing span.  A span's self time is its
duration minus the time its child spans and its ``core`` calls cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from grassmann import cli, constructions, core, expr, oracle, poly, scene
from grassmann.constructions import ConstructionError

CORE_FUNCTIONS = ("join", "meet", "bracket", "canonicalize", "projectively_equal")
_SIZED = {"join", "meet", "canonicalize"}
NAMED_CONSTRUCTIONS = (
    "fit_nine_points",
    "general_position_violation",
    "third_point_general",
    "tangent_third_at",
)
NAMED_EXPR = ("eval_numeric", "eval_symbolic")
NAMED_POLY = ("nullspace_fit", "restrict_to_line", "evaluate")
_CHORDS = ("constructions.third_point_general", "constructions.tangent_third_at")
_FIT = "constructions.fit_nine_points"
SPAN_FIELDS = ("op", "id", "parent", "name", "start", "end", "core_s")


def _coord_bits(value) -> int:
    """Largest numerator or denominator bit length of a point, line or
    scalar whose entries are ints or Fractions."""
    coords = value.coords if hasattr(value, "coords") else (value,)
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coords)


def _span_targets():
    """(owner, attribute, span name) for every function that gets a span."""
    targets = []
    for name in dict.fromkeys([*constructions.__all__, *NAMED_CONSTRUCTIONS]):
        fn = getattr(constructions, name)
        if callable(fn) and not isinstance(fn, type):
            # the CLI's fit9 calls the trace variant; both are the one fit
            span = _FIT if name == "fit_nine_points_trace" else f"constructions.{name}"
            targets.append((constructions, name, span))
    targets += [(expr, n, f"expr.{n}") for n in NAMED_EXPR]
    targets += [(poly, n, f"poly.{n}") for n in NAMED_POLY]
    targets += [(oracle, n, f"oracle.{n}") for n in oracle.__all__ if not n[0].isupper()]
    targets.append((cli, "main", "cli.main"))
    return targets


class Tracer:
    """Collects spans and core counters while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.core_calls: Counter = Counter()
        self.core_time = 0.0
        self.max_bits = 0
        self.chord_depth = 0
        self.fits_in_chords = 0
        self.chord_results = 0
        self.rejected = 0
        self._last_rejected = None
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, start: float) -> list:
        parent = self.stack[-1][1] if self.stack else None
        rec = [self.op, len(self.spans), parent, name, start, None, 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._open("op", perf_counter())

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _spanned(self, name: str, fn):
        tracer = self
        is_chord = name in _CHORDS
        is_construction = name.startswith("constructions.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][3] == name:  # recursion, or an alias of one fit
                return fn(*args, **kwargs)
            if name == _FIT and tracer.chord_depth:
                tracer.fits_in_chords += 1
            rec = tracer._open(name, perf_counter())
            tracer.chord_depth += is_chord
            try:
                result = fn(*args, **kwargs)
            except ConstructionError as exc:
                if is_construction and exc is not tracer._last_rejected:
                    tracer.rejected += 1
                    tracer._last_rejected = exc
                raise
            finally:
                tracer.chord_depth -= is_chord
                tracer._close(rec)
            tracer.chord_results += is_chord
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            tracer.core_calls[name] += 1
            tracer.core_time += elapsed
            if tracer.stack:
                tracer.stack[-1][6] += elapsed
            if sized:
                bits = _coord_bits(result)
                if bits > tracer.max_bits:
                    tracer.max_bits = bits
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "grassmann"]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for name in CORE_FUNCTIONS:
            fn = getattr(core, name)
            self._patch(fn, self._counted(name, fn))
        for owner, attr, span in _span_targets():
            fn = getattr(owner, attr)
            self._patch(fn, self._spanned(span, fn))
        load = scene.Scene.__dict__["load"]
        render = scene.Report.__dict__["render"]
        self._restore += [(scene.Scene, "load", load), (scene.Report, "render", render)]
        scene.Scene.load = classmethod(self._spanned("scene.load", load.__func__))
        scene.Report.render = self._spanned("scene.render", render)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts and self times; times are multiplied by scale."""
        covered: dict = defaultdict(float)
        for rec in self.spans:
            if rec[2] is not None:
                covered[rec[2]] += rec[5] - rec[4]
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for rec in self.spans:
            calls[rec[3]] += 1
            self_s[rec[3]] += (rec[5] - rec[4] - covered[rec[1]] - rec[6]) * scale
        m: dict[str, float] = {}
        for name in CORE_FUNCTIONS:
            m[f"core.{name}.calls"] = self.core_calls[name]
        m["core.self_s"] = self.core_time * scale
        m["core.max_coord_bits"] = self.max_bits
        named = [f"constructions.{n}" for n in NAMED_CONSTRUCTIONS]
        named += [f"expr.{n}" for n in NAMED_EXPR] + [f"poly.{n}" for n in NAMED_POLY]
        for name in named:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["constructions.self_s"] = sum(
            t for n, t in self_s.items() if n.startswith("constructions.")
        )
        m["oracle.calls"] = sum(c for n, c in calls.items() if n.startswith("oracle."))
        m["oracle.self_s"] = sum(t for n, t in self_s.items() if n.startswith("oracle."))
        for name in ("scene.load", "scene.render", "cli.main"):
            m[f"{name}.self_s"] = self_s[name]
        m["constructions.fit_yield"] = (
            self.chord_results / self.fits_in_chords if self.fits_in_chords else 1.0
        )
        m["constructions.rejected_selections"] = self.rejected
        return m
