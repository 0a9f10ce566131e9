"""Command-line interface.

One command per construction, each filling in a plain-text report with
the construction's outputs and at least one independent verification
entry.  Exit codes: 0 success (or a true predicate), 1 a false predicate,
2 degenerate input or a failed verification, 3 parse or I/O errors.
:func:`main` builds the report and turns a failed check into exit 2.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import constructions as cons
from . import oracle
from .core import KindError, Point, bracket, incidence, join, kind_of, projectively_equal
from .expr import (
    Environment,
    ParseError,
    UnboundNameError,
    contains_x,
    eval_numeric,
    eval_symbolic,
    parse,
    parse_statement,
    pretty_print,
)
from .generate import random_scene
from .poly import DegenerateLineError, HomPoly, RankDeficientError, evaluate, nullspace_fit
from .scene import Report, Scene, SceneError, format_triple

_DEGENERATE_ERRORS = (
    cons.ConstructionError,
    RankDeficientError,
    DegenerateLineError,
    oracle.ZeroPolynomialError,
    oracle.LineContainedError,
    oracle.SingularPointError,
)


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_scene(args) -> Scene:
    if not args.infile:
        raise SceneError("this command needs --in FILE")
    return Scene.load(args.infile)


def _poly_str(f: HomPoly) -> str:
    return "[" + ":".join(str(c) for c in f.coefficient_vector()) + "]"


def _nine(scene: Scene) -> cons.NinePointLabels:
    return cons.NinePointLabels.from_points(scene.nine_points())


def _fitted(scene: Scene) -> tuple[cons.CubicParams, HomPoly]:
    """The cubic through the scene's labelled nine points: its parameters
    and its expanded form."""
    params = cons.fit_nine_points(_nine(scene))
    return params, cons.expand_cubic(params)


def _known_curve_points(scene: Scene, params) -> list[Point]:
    return [p for p in scene.points.values() if cons.evaluate_cubic(params, p) == 0]


def _points_on_curve(scene: Scene, names, known) -> list[Point]:
    """The named scene points; one that is not among the known curve
    points is refused."""
    pts = [scene.point(name) for name in names]
    for name, pt in zip(names, pts):
        if pt not in known:
            raise cons.HypothesisViolation(f"point {name} is not on the cubic")
    return pts


# ---------------------------------------------------------------------------
# commands


def cmd_fit9(scene: Scene, args, report: Report) -> int:
    labels = _nine(scene)
    params, steps = cons.fit_nine_points_trace(labels)
    for name in ("a1", "b1", "k", "A", "B", "C"):
        report.add_triple(name, getattr(params, name))
    if args.verbose:
        for name, obj in steps.items():
            report.add_triple(name, obj)
    expanded = cons.expand_cubic(params).primitive()
    report.add_output("cubic coefficients", _poly_str(expanded))
    report.add_check(
        "cubic-through-nine",
        all(cons.evaluate_cubic(params, p) == 0 for p in labels),
    )
    # both forms are primitive, so they are proportional exactly when equal
    fitted = nullspace_fit(labels, 3)
    report.add_check("matches-nullspace-oracle", not expanded.is_zero and expanded == fitted)
    report.add_check("lines-concurrent", bracket(params.A, params.B, params.C) == 0)
    return 0


def cmd_check10(scene: Scene, args, report: Report) -> int:
    name = args.points[0]
    p10 = scene.point(name)
    params, f = _fitted(scene)
    on_curve = cons.evaluate_cubic(params, p10) == 0
    report.add_output(f"point {name} on cubic", "true" if on_curve else "false")
    report.add_check("matches-polynomial-oracle", oracle.cubic_membership(f, p10) == on_curve)
    return 0 if on_curve else 1


def cmd_eval(scene: Scene, args, report: Report) -> int:
    if not args.expr:
        raise SceneError("eval needs --expr STRING")
    expr, is_equation = parse_statement(args.expr)
    names = {**scene.points, **scene.lines}
    x_binding = scene.point(args.points[0]) if args.points else None
    env = Environment(names, x=x_binding)
    report.add_check("pretty-print-roundtrip", parse(pretty_print(expr)) == expr)
    if is_equation:
        report.add_diagnostic("input carried '=0'; treated as a curve equation")
    if contains_x(expr) and x_binding is None:
        value = eval_symbolic(expr, env)
        if isinstance(value, HomPoly):
            report.add_output(f"form of degree {value.degree}", _poly_str(value.primitive()))
        else:
            report.add_output(
                "symbolic triple",
                "; ".join(_poly_str(entry) for entry in value.primitive().entries),
            )
    else:
        value = eval_numeric(expr, env)
        if kind_of(value) == "scalar":
            report.add_output("scalar result", str(value))
        else:
            report.add_triple("result", value)
    return 0


def cmd_third_point(scene: Scene, args, report: Report) -> int:
    params, f = _fitted(scene)
    if args.points:
        known = _known_curve_points(scene, params)
        p, q = _points_on_curve(scene, args.points, known)
        y = cons.third_point_general(known, p, q)
    else:
        p, q = params.a, params.b
        y = cons.third_point_on_chord_ab(params)
    report.add_triple("third", y)
    chord = join(p, q)
    report.add_check("on-chord", incidence(chord, y) == 0)
    report.add_check("on-cubic-polynomial-oracle", oracle.cubic_membership(f, y))
    report.add_check("deflation-oracle-root", projectively_equal(y, oracle.third(f, p, q)))
    return 0


def cmd_tangent(scene: Scene, args, report: Report) -> int:
    params, f = _fitted(scene)
    grad = oracle.gradient_tangent(f, params.a)
    if grad.is_zero:
        raise cons.HypothesisViolation(
            f"a = {format_triple(params.a)} is a singular point of the cubic"
        )
    tangent = cons.tangent_at_a(params)
    report.add_triple("tangent", tangent)
    report.add_check("through-a", incidence(tangent, params.a) == 0)
    report.add_check("matches-gradient-oracle", projectively_equal(tangent, grad))
    mult, _ = oracle.tangent_third(f, tangent, params.a)
    report.add_check("contact-order-at-least-2", mult >= 2)
    return 0


def cmd_tangent_third(scene: Scene, args, report: Report) -> int:
    params, f = _fitted(scene)
    w = cons.tangent_third_point(params)
    tangent = cons.tangent_at_a(params)
    report.add_triple("w", w)
    report.add_triple("tangent", tangent)
    report.add_check("on-tangent", incidence(tangent, w) == 0)
    report.add_check("on-cubic-polynomial-oracle", oracle.cubic_membership(f, w))
    mult, w_oracle = oracle.tangent_third(f, tangent, params.a)
    report.add_check("contact-order-at-least-2", mult >= 2)
    if projectively_equal(w, params.a):
        report.add_diagnostic("a is a flex: the tangent third point coincides with a")
        report.add_check("flex-contact-order-3", mult == 3)
    else:
        report.add_check(
            "matches-deflation-oracle",
            w_oracle is not None and projectively_equal(w, w_oracle),
        )
    return 0


def cmd_is_flex(scene: Scene, args, report: Report) -> int:
    params, f = _fitted(scene)
    flex = cons.is_flex(params)
    report.add_output("a is a flex", "true" if flex else "false")
    report.add_check("matches-hessian-oracle", oracle.hessian_flex_oracle(f, params.a) == flex)
    return 0 if flex else 1


def cmd_conic_sixth(scene: Scene, args, report: Report) -> int:
    """The sixth point z where the conic through a, c, d, e, f meets the
    cubic, checked against the oracle chord chain a.((cd).(ef)) on the
    fitted cubic F, where u.v is oracle.third(F, u, v).

    Proof: fix any base point of the cubic, so that the three points of
    a line sum to a constant kappa and u.v = kappa - u - v.  With
    r = kappa - c - d, s = kappa - e - f and t = kappa - r - s, the chain
    gives a.t = kappa - a - t = 2 kappa - a - c - d - e - f.  A conic
    and a pair of lines cut the cubic in linearly equivalent divisors, so
    the six points where the conic meets it sum, like the six of two
    lines, to 2 kappa: z = a.t.
    """
    labels = _nine(scene)
    z, y = cons.conic_cubic_sixth(labels)
    report.add_triple("z", z)
    report.add_triple("y", y)
    conic = nullspace_fit([labels.a, labels.c, labels.d, labels.e, labels.f], 2)
    report.add_check("on-conic-nullspace-oracle", evaluate(conic, z) == 0)
    cubic = nullspace_fit(labels, 3)
    report.add_check("on-cubic-nullspace-oracle", evaluate(cubic, z) == 0)

    def third(u, v):
        return oracle.third(cubic, u, v)

    chain = third(labels.a, third(third(labels.c, labels.d), third(labels.e, labels.f)))
    report.add_check("chord-chain-agreement", projectively_equal(z, chain))
    for name in "acdef":
        if projectively_equal(z, getattr(labels, name)):
            report.add_diagnostic(f"z coincides with defining point {name}")
            break
    return 0


def cmd_group_add(scene: Scene, args, report: Report) -> int:
    params, f = _fitted(scene)
    known = _known_curve_points(scene, params)
    o, p, q = _points_on_curve(scene, args.points, known)
    for name, pt in zip(args.points, (o, p, q)):
        if oracle.gradient_tangent(f, pt).is_zero:
            raise cons.HypothesisViolation(f"point {name} is a singular point of the cubic")
    total = cons.group_add(known, o, p, q, verify_flex=not args.no_verify_flex)
    if args.no_verify_flex:
        report.add_diagnostic("identity accepted unverified (--no-verify-flex)")
    report.add_triple("sum", total)
    report.add_check("sum-on-cubic-oracle", oracle.cubic_membership(f, total))
    other = cons.group_add(known, o, q, p, verify_flex=False)
    report.add_check("commutes", projectively_equal(total, other))
    # p + q is the third point of the line through o and p.q
    chain = oracle.third(f, o, oracle.third(f, p, q))
    report.add_check("matches-chord-chain-oracle", projectively_equal(total, chain))
    return 0


def cmd_random(args) -> str:
    if args.count < 0:
        raise SceneError(f"random takes a count of at least 0, not {args.count}")
    scene = random_scene(args.seed, args.count)
    header = f"# seed {args.seed}, extra chord-constructed points: {args.count}\n"
    return header + scene.serialize()


# ---------------------------------------------------------------------------
# dispatch

# each scene command with the numbers of --point arguments it reads;
# random reads none
_SCENE_COMMANDS = {
    "fit9": (cmd_fit9, (0,)),
    "check10": (cmd_check10, (1,)),
    "eval": (cmd_eval, (0, 1)),
    "third_point": (cmd_third_point, (0, 2)),
    "tangent": (cmd_tangent, (0,)),
    "tangent_third": (cmd_tangent_third, (0,)),
    "is_flex": (cmd_is_flex, (0,)),
    "conic_sixth": (cmd_conic_sixth, (0,)),
    "group_add": (cmd_group_add, (3,)),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state between calls: every call gets a fresh
    namespace, and ``append`` copies the shared ``--point`` default before
    adding to it.
    """
    parser = argparse.ArgumentParser(
        prog="grassmann",
        description="Exact straightedge constructions on plane cubic curves.",
    )
    parser.add_argument("command", choices=[*_SCENE_COMMANDS, "random"])
    parser.add_argument("--in", dest="infile", help="scene file")
    parser.add_argument("--out", dest="outfile", help="write output here instead of stdout")
    parser.add_argument("--expr", help="expression string (eval)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (random)")
    parser.add_argument("--count", type=int, default=0, help="extra curve points (random)")
    parser.add_argument(
        "--point",
        dest="points",
        action="append",
        default=[],
        metavar="NAME",
        help="named scene point (repeatable)",
    )
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--no-verify-flex",
        action="store_true",
        help="group_add: accept the identity point without the flex test",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command, counts = _SCENE_COMMANDS.get(args.command, (None, (0,)))
        if len(args.points) not in counts:
            allowed = " or ".join(map(str, counts))
            noun = "argument" if counts == (1,) else "arguments"
            raise SceneError(f"{args.command} takes {allowed} --point {noun}, not {len(args.points)}")
        if args.command == "random":
            _write(cmd_random(args), args.outfile)
            return 0
        scene = _load_scene(args)
        report = Report(args.command, scene.digest())
        code = command(scene, args, report)
        _write(report.render(), args.outfile)
        return code if report.ok else 2
    except (SceneError, ParseError, UnboundNameError, KindError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _DEGENERATE_ERRORS as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
