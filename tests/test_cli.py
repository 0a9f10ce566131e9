import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassmann.cli import build_parser, main
from grassmann.constructions import (
    NinePointLabels,
    conic_cubic_sixth,
    expand_cubic,
    fit_nine_points,
)
from grassmann.core import Point
from grassmann.generate import random_scene
from grassmann.expr import Environment, eval_numeric, eval_symbolic, parse
from grassmann.poly import HomPoly, primitive_triple
from grassmann.scene import Report, Scene, SceneError, parse_rational

from plot_script import plot

GOLDEN = Path(__file__).parent / "golden"


# the bracket of the three cross-meets of the hexagon a b_1 c a_1 b c_1,
# which vanishes when the six lie on a conic (Pascal's theorem)
PASCAL_BRACKET = "(ab_1.a_1b)(ac_1.a_1c).(bc_1.b_1c)"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_plot(argv, capsys):
    """tools/plot.py's main on argv: exit code, stdout and stderr."""
    code = plot.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def scene_path(tmp_path):
    scene = random_scene(7, count=1)
    path = tmp_path / "scene.txt"
    path.write_text(scene.serialize())
    return str(path)


class TestSceneFormat:
    def test_parse_round_trip(self):
        scene = random_scene(3, count=2)
        text = scene.serialize()
        again = Scene.parse(text)
        assert again.serialize() == text
        assert again.digest() == scene.digest()

    def test_rationals_round_trip(self):
        text = "format: 1\npoint a = 1, -7/2, 0\nline A = 2/3, 0, -1\n"
        scene = Scene.parse(text)
        assert str(scene.points["a"].coords[1]) == "-7/2"
        assert Scene.parse(scene.serialize()).serialize() == scene.serialize()

    @given(
        coords=st.lists(
            # the zero triple is no point, and the parser refuses it
            st.tuples(
                *(3 * [st.fractions(min_value=-99, max_value=99, max_denominator=60)])
            ).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    def test_arbitrary_rationals_round_trip(self, coords):
        scene = Scene()
        for name, triple in zip(["a", "b", "c", "d", "e"], coords):
            scene.points[name] = Point(*triple)
        text = scene.serialize()
        again = Scene.parse(text)
        assert again.serialize() == text
        assert again.points == scene.points

    def test_header_required(self):
        with pytest.raises(SceneError):
            Scene.parse("point a = 1, 2, 3\n")

    def test_reserved_x_rejected(self):
        with pytest.raises(SceneError):
            Scene.parse("format: 1\npoint x = 1, 2, 3\n")

    def test_case_convention_enforced(self):
        with pytest.raises(SceneError):
            Scene.parse("format: 1\npoint A = 1, 2, 3\n")
        with pytest.raises(SceneError):
            Scene.parse("format: 1\nline a = 1, 2, 3\n")

    def test_duplicate_rejected(self):
        with pytest.raises(SceneError):
            Scene.parse("format: 1\npoint a = 1, 2, 3\npoint a = 1, 2, 4\n")

    @pytest.mark.parametrize(
        "box", ["0, 0, -5, 5", "5, -5, 0, 5", "-5, 5, 1/2, 1/2", "-5, 5, 5, -5"]
    )
    def test_empty_viewport_rejected(self, box):
        with pytest.raises(SceneError, match="viewport needs xmin < xmax and ymin < ymax"):
            Scene.parse(f"format: 1\nviewport = {box}\n")

    def test_viewport_round_trip(self):
        scene = Scene.parse("format: 1\nviewport = -1/2, 3, -4, 4\n")
        assert scene.viewport == (Fraction(-1, 2), 3, -4, 4)
        assert Scene.parse(scene.serialize()).viewport == scene.viewport

    def test_report_failing_check_marks_failed(self):
        report = Report("demo", "sha256:0")
        report.add_check("always", False)
        assert "FAIL" in report.render()
        assert not report.ok


class TestCommands:
    def test_fit9_report(self, scene_path, capsys):
        code, out, err = run_cli(["fit9", "--in", scene_path], capsys)
        assert code == 0
        assert "check cubic-through-nine: pass" in out
        assert "check matches-nullspace-oracle: pass" in out
        assert "status: ok" in out

    def test_fit9_deterministic_bytes(self, scene_path, capsys):
        _, out1, _ = run_cli(["fit9", "--in", scene_path], capsys)
        _, out2, _ = run_cli(["fit9", "--in", scene_path], capsys)
        assert out1 == out2

    def test_check10_on_curve(self, scene_path, capsys):
        code, out, _ = run_cli(["check10", "--in", scene_path, "--point", "p_1"], capsys)
        assert code == 0
        assert "on cubic = true" in out

    def test_check10_off_curve(self, tmp_path, capsys):
        scene = random_scene(7, count=0)
        # a grid point clearly off the fitted cubic: perturb point a
        from grassmann.constructions import evaluate_cubic, fit_nine_points
        from grassmann.core import Point

        labels = scene.nine_points()
        from grassmann.constructions import NinePointLabels

        params = fit_nine_points(NinePointLabels.from_points(labels))
        p = scene.points["a"]
        bump = 1
        while True:
            cand = Point(p.coords[0], p.coords[1], p.coords[2] + bump)
            if evaluate_cubic(params, cand) != 0:
                break
            bump += 1
        scene.points["j"] = cand
        path = tmp_path / "off.txt"
        path.write_text(scene.serialize())
        code, out, _ = run_cli(["check10", "--in", str(path), "--point", "j"], capsys)
        assert code == 1
        assert "on cubic = false" in out

    def test_check10_degenerate_scene(self, tmp_path, capsys):
        scene = random_scene(7, count=1)
        from grassmann.core import Point

        a, b = scene.points["a"], scene.points["b"]
        scene.points["c"] = Point(*(x + y for x, y in zip(a.coords, b.coords)))
        path = tmp_path / "degen.txt"
        path.write_text(scene.serialize())
        code, _, err = run_cli(["check10", "--in", str(path), "--point", "p_1"], capsys)
        assert code == 2
        assert "degenerate" in err or "collinear" in err

    def test_eval_numeric(self, scene_path, capsys):
        code, out, _ = run_cli(
            ["eval", "--in", scene_path, "--expr", "ab.cd"], capsys
        )
        assert code == 0
        assert "output point result" in out

    def test_eval_symbolic(self, scene_path, capsys):
        code, out, _ = run_cli(
            ["eval", "--in", scene_path, "--expr", "(xaAa_1.xbBkCb_1.xc)=0"], capsys
        )
        # scene has no a_1/A/B/C bindings, so this errors cleanly
        assert code == 2 or code == 3

    def test_eval_symbolic_conic(self, tmp_path, capsys):
        text = (
            "format: 1\n"
            "point a = 1, 2, 3\npoint b = 1, -1, 4\npoint c = 1, 5, -2\n"
            "line A = 2, 1, 1\nline B = 3, -1, 2\n"
        )
        path = tmp_path / "conic.txt"
        path.write_text(text)
        code, out, _ = run_cli(["eval", "--in", str(path), "--expr", "xaAbBcx"], capsys)
        assert code == 0
        assert "form of degree 2" in out

    def test_eval_symbolic_triple_keeps_the_ratio_of_its_entries(self, capsys):
        # xab.cd is the scalar [x,a,b] times the line cd, and on grid.scene
        # cd = c x d = (-55, 0, 11), so the printed entries are in ratio
        # -5 : 0 : 1, divided by one content for all three
        scene = str(GOLDEN / "grid.scene")
        code, out, _ = run_cli(["eval", "--in", scene, "--expr", "xab.cd"], capsys)
        assert code == 0
        (line,) = [t for t in out.splitlines() if t.startswith("output symbolic triple = ")]
        e0, e1, e2 = (
            [int(c) for c in entry.strip("[] ").split(":")]
            for entry in line.split(" = ")[1].split(";")
        )
        assert any(e2)
        assert e0 == [-5 * c for c in e2]
        assert e1 == [0] * len(e2)

    def test_eval_parse_error(self, scene_path, capsys):
        code, _, err = run_cli(["eval", "--in", scene_path, "--expr", "a$$"], capsys)
        assert code == 3
        assert "error" in err

    def test_eval_unbound_name_names_it(self, capsys):
        """An unbound name exits 3 with a message that names it, not the
        bare repr that str gives a KeyError."""
        grid = str(GOLDEN / "grid.scene")
        code, out, err = run_cli(["eval", "--in", grid, "--expr", "aD"], capsys)
        assert (code, out, err) == (3, "", "error: unbound name 'D'\n")

    def test_third_point(self, scene_path, capsys):
        code, out, _ = run_cli(["third_point", "--in", scene_path], capsys)
        assert code == 0
        assert "check deflation-oracle-root: pass" in out

    def test_third_point_named(self, scene_path, capsys):
        code, out, _ = run_cli(
            ["third_point", "--in", scene_path, "--point", "c", "--point", "g"], capsys
        )
        assert code == 0
        assert "status: ok" in out

    def test_third_point_coincident_endpoints_exit_2(self, scene_path, capsys):
        code, out, err = run_cli(
            ["third_point", "--in", scene_path, "--point", "a", "--point", "a"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "degenerate: chord endpoints coincide\n"

    def test_third_point_endpoint_answer_fails_the_deflation_oracle(self, capsys, monkeypatch):
        """An endpoint is on the chord and on the cubic; only the line
        oracle's third point tells it from the answer."""
        from grassmann import constructions as cons

        monkeypatch.setattr(cons, "third_point_on_chord_ab", lambda params: params.a)
        code, out, _ = run_cli(["third_point", "--in", str(GOLDEN / "grid.scene")], capsys)
        assert code == 2
        assert "check on-chord: pass" in out
        assert "check on-cubic-polynomial-oracle: pass" in out
        assert "check deflation-oracle-root: FAIL" in out

    def test_conic_sixth_defining_point_answer_fails_the_chord_chain(self, capsys, monkeypatch):
        """a is on the conic and on the cubic; only the oracle chord chain
        tells it from the sixth point."""
        from grassmann import constructions as cons

        sixth = cons.conic_cubic_sixth

        def returns_a(labels):
            _, y = sixth(labels)
            return labels.a, y

        monkeypatch.setattr(cons, "conic_cubic_sixth", returns_a)
        code, out, _ = run_cli(["conic_sixth", "--in", str(GOLDEN / "grid.scene")], capsys)
        assert code == 2
        assert "check on-conic-nullspace-oracle: pass" in out
        assert "check on-cubic-nullspace-oracle: pass" in out
        assert "check chord-chain-agreement: FAIL" in out

    def test_group_add_identity_answer_fails_the_chord_chain(self, capsys, monkeypatch):
        """The identity o is on the cubic and commutes with itself; only the
        oracle chord chain tells it from the sum."""
        from grassmann import constructions as cons

        monkeypatch.setattr(cons, "group_add", lambda known, o, p, q, verify_flex: o)
        argv = ["group_add", "--no-verify-flex", "--point", "a", "--point", "p_1", "--point", "p_2"]
        code, out, _ = run_cli([*argv, "--in", str(GOLDEN / "grid.scene")], capsys)
        assert code == 2
        assert "check sum-on-cubic-oracle: pass" in out
        assert "check commutes: pass" in out
        assert "check matches-chord-chain-oracle: FAIL" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check10", "--point", "p_1"],
            ["third_point"],
            ["tangent_third"],
            ["group_add", "--no-verify-flex", "--point", "a", "--point", "p_1", "--point", "p_2"],
        ],
        ids=["check10", "third_point", "tangent_third", "group_add"],
    )
    def test_zero_cubic_is_no_oracle(self, argv, capsys, monkeypatch):
        """Every point is on the zero form, so a membership check against it
        refuses instead of passing."""
        from grassmann import cli

        fitted = cli._fitted
        monkeypatch.setattr(cli, "_fitted", lambda scene: (fitted(scene)[0], HomPoly(3)))
        code, out, err = run_cli([*argv, "--in", str(GOLDEN / "grid.scene")], capsys)
        assert (code, out) == (2, "")
        assert err == "degenerate: membership in the zero polynomial is vacuous\n"

    @pytest.mark.parametrize(
        "argv",
        [["third_point", "--point", "a"], ["group_add", "--point", "a", "--point", "a"]],
        ids=["third_point", "group_add"],
    )
    def test_off_curve_point_exit_2(self, argv, capsys):
        """j of the grid scene is not on the cubic through a..i: third_point
        and group_add refuse it by the same test, before any construction."""
        grid = str(GOLDEN / "grid.scene")
        code, out, err = run_cli([*argv, "--point", "j", "--in", grid], capsys)
        assert (code, out) == (2, "")
        assert err == "degenerate: point j is not on the cubic\n"

    @pytest.mark.parametrize(
        "command, names, reads",
        [
            ("check10", [], "1 --point argument"),
            ("check10", ["p_1", "a"], "1 --point argument"),
            ("fit9", ["a"], "0 --point arguments"),
            ("tangent", ["p_1"], "0 --point arguments"),
            ("tangent_third", ["a"], "0 --point arguments"),
            ("is_flex", ["a"], "0 --point arguments"),
            ("conic_sixth", ["a"], "0 --point arguments"),
            ("eval", ["a", "b"], "0 or 1 --point arguments"),
            ("third_point", ["a"], "0 or 2 --point arguments"),
            ("third_point", ["a", "b", "c"], "0 or 2 --point arguments"),
            ("group_add", ["a", "b"], "3 --point arguments"),
            ("group_add", ["a", "b", "c", "d"], "3 --point arguments"),
            ("random", ["a"], "0 --point arguments"),
        ],
    )
    def test_a_point_count_the_command_does_not_read_exits_3(
        self, command, names, reads, scene_path, capsys
    ):
        points = [arg for name in names for arg in ("--point", name)]
        argv = [command, "--in", scene_path, "--expr", "ab.cd", *points]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {command} takes {reads}, not {len(names)}\n"

    def test_tangent(self, scene_path, capsys):
        code, out, _ = run_cli(["tangent", "--in", scene_path], capsys)
        assert code == 0
        assert "check matches-gradient-oracle: pass" in out

    def test_singular_point_exits_2(self, capsys):
        """On the nodal scene (a is the node) the tangent, the tangent
        third point, the flex test and a sum with a as identity or summand
        all refuse; the fit succeeds."""
        nodal = str(GOLDEN / "nodal.scene")
        code, out, err = run_cli(["tangent", "--in", nodal], capsys)
        assert (code, out) == (2, "")
        assert err == "degenerate: a = [0:0:1] is a singular point of the cubic\n"
        for command in ("tangent_third", "is_flex"):
            code, out, err = run_cli([command, "--in", nodal], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("degenerate: ")
        for order in (["b", "a", "d"], ["a", "b", "d"]):
            points = [arg for name in order for arg in ("--point", name)]
            code, out, err = run_cli(
                ["group_add", "--in", nodal, "--no-verify-flex", *points], capsys
            )
            assert (code, out) == (2, "")
            assert err == "degenerate: point a is a singular point of the cubic\n"
        code, out, _ = run_cli(["fit9", "--in", nodal], capsys)
        assert code == 0
        assert "status: ok" in out

    def test_conic_component_exits_2_and_names_the_cause(self, capsys):
        """On the conic-plus-line scene, the conic through a, c, d, e, f
        also passes through b and g, so it is a component of the cubic and
        has no sixth point: conic_sixth refuses and says so.  The fit and
        the chord through a and b still pass."""
        scene = str(GOLDEN / "conic-line.scene")
        code, out, err = run_cli(["conic_sixth", "--in", scene], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "degenerate: the conic through a, c, d, e, f is a component of the"
            " cubic: it also passes through b, g\n"
        )
        for argv in (["fit9"], ["third_point"]):
            code, out, _ = run_cli([*argv, "--in", scene], capsys)
            assert code == 0
            assert "status: ok" in out

    def test_tangent_third(self, scene_path, capsys):
        code, out, _ = run_cli(["tangent_third", "--in", scene_path], capsys)
        assert code == 0
        assert "check matches-deflation-oracle: pass" in out

    def test_tangent_third_restricts_the_cubic_once(self, scene_path, capsys, monkeypatch):
        from grassmann import oracle

        calls, original = [], oracle.restrict_to_line

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "restrict_to_line", counted)
        for runs in (1, 2, 3):
            code, out, _ = run_cli(["tangent_third", "--in", scene_path], capsys)
            assert code == 0
            assert "check contact-order-at-least-2: pass" in out
            assert len(calls) == runs

    def test_tangent_third_line_on_curve_exits_2(self, scene_path, capsys, monkeypatch):
        from grassmann import oracle

        monkeypatch.setattr(oracle, "restrict_to_line", lambda f, p, q: [0, 0, 0, 0])
        code, _, err = run_cli(["tangent_third", "--in", scene_path], capsys)
        assert code == 2
        assert err == "degenerate: line pq lies on the curve\n"

    def test_is_flex_generic(self, scene_path, capsys):
        code, out, _ = run_cli(["is_flex", "--in", scene_path], capsys)
        assert code == 1
        assert "a is a flex = false" in out
        assert "check matches-hessian-oracle: pass" in out

    def test_is_flex_positive(self, tmp_path, capsys):
        import sys as _sys
        from pathlib import Path as _Path

        _sys.path.insert(0, str(_Path(__file__).parent))
        from curves import CURVES, FLEX, grow_pool, nine_with_anchor, weierstrass

        pool = grow_pool(weierstrass(0, 17), CURVES[0][2], 14)
        labels = nine_with_anchor(pool, FLEX)
        lines = ["format: 1"]
        for name, pt in zip("abcdefghi", labels):
            lines.append(f"point {name} = " + ", ".join(str(c) for c in pt.coords))
        path = tmp_path / "flex.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["is_flex", "--in", str(path)], capsys)
        assert code == 0
        assert "a is a flex = true" in out
        assert "check matches-hessian-oracle: pass" in out

    def test_conic_sixth(self, scene_path, capsys):
        code, out, _ = run_cli(["conic_sixth", "--in", scene_path], capsys)
        assert code == 0
        assert "check chord-chain-agreement: pass" in out

    def test_conic_sixth_reports_a_coincidence_once(self, tmp_path, capsys):
        # Nine points of y^2 = x^3 + 17 ([x0:x1:x2] = [z:x:y]).  With the
        # flex (0:0:1) as identity, six points of the cubic lie on a conic
        # exactly when they sum to zero; f is -(2a + c + d + e), so the
        # conic through a, c, d, e, f touches the cubic at a and z = a.
        coords = {
            "a": (1, -1, 4),
            "b": (1, -2, -3),
            "c": (1, -2, 3),
            "d": (1, 2, 5),
            "e": (1, 8, -23),
            "f": (68921, 44444, -286401),
            "g": (1, 4, -9),
            "h": (1, 8, 23),
            "i": (8, 2, -33),
        }
        labels = NinePointLabels.from_points(Point(*coords[name]) for name in "abcdefghi")
        z, _ = conic_cubic_sixth(labels)
        assert z == labels.a
        path = tmp_path / "tangent.scene"
        path.write_text(
            "format: 1\n"
            + "".join(f"point {name} = {x}, {y}, {z}\n" for name, (x, y, z) in coords.items())
        )
        code, out, _ = run_cli(["conic_sixth", "--in", str(path)], capsys)
        assert code == 0
        assert out.count("diagnostic: z coincides with defining point a\n") == 1
        assert out.count("diagnostic:") == 1

    def test_conic_sixth_fits_the_labels_once(self, scene_path, capsys, monkeypatch):
        # conic_cubic_sixth fits the nine labels and refits once for its
        # chord ef; the chord-chain check runs on the oracle and fits
        # nothing.  The third fit is the random_scene call below, whose
        # chord refits once.
        from grassmann import constructions as cons

        labelled, original = [], cons._fit

        def counted(pts):
            labelled.append(pts)
            return original(pts)

        monkeypatch.setattr(cons, "_fit", counted)
        nine = tuple(random_scene(7, count=1).nine_points())
        code, out, _ = run_cli(["conic_sixth", "--in", scene_path], capsys)
        assert code == 0
        assert "check chord-chain-agreement: pass" in out
        assert len(labelled) == 3
        assert sum(pts == nine for pts in labelled) == 1

    def test_pascal_on_conic(self, tmp_path, capsys):
        """Pascal's theorem through eval: on six points of a conic, the
        cross-meets of the hexagon a b_1 c a_1 b c_1 are collinear."""
        from test_constructions import TestPascal

        six = TestPascal.conic_points(6, seed=9)
        lines = ["format: 1"]
        for name, pt in zip(["a", "b", "c", "a_1", "b_1", "c_1"], six):
            lines.append(f"point {name} = " + ", ".join(str(c) for c in pt.coords))
        path = tmp_path / "pascal.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["eval", "--in", str(path), "--expr", PASCAL_BRACKET], capsys)
        assert code == 0
        assert "output scalar result = 0\n" in out

    def test_pascal_generic(self, tmp_path, capsys):
        text = (
            "format: 1\n"
            "point a = 1, 0, 0\npoint b = 0, 1, 0\npoint c = 0, 0, 1\n"
            "point a_1 = 1, 1, 1\npoint b_1 = 1, 2, 3\npoint c_1 = 1, -1, 2\n"
        )
        path = tmp_path / "pascal2.txt"
        path.write_text(text)
        code, out, _ = run_cli(["eval", "--in", str(path), "--expr", PASCAL_BRACKET], capsys)
        assert code == 0
        (line,) = [t for t in out.splitlines() if t.startswith("output scalar result = ")]
        assert line != "output scalar result = 0"

    # the hexagon a, b, c, d, e, f read as a, b, c, a_1, b_1, c_1: its
    # cross-meets ae.db, af.dc and bf.ec, and the bracket of the three;
    # with b_1 = a, the first meet is the zero point
    @pytest.mark.parametrize(
        "scene, exprs, values",
        [
            (
                "grid",
                ("ae.db", "af.dc", "bf.ec", "(ae.db)(af.dc).(bf.ec)"),
                ("[46:148:209]", "[5:-28:25]", "[73:-1072:464]", "17309952"),
            ),
            (
                "rational",
                ("ae.db", "af.dc", "bf.ec", "(ae.db)(af.dc).(bf.ec)"),
                ("[465:-1075:622]", "[90:-375:-448]", "[255:-695:-1086]", "147376/81"),
            ),
            (
                "grid",
                ("aa.db", "af.dc", "bf.ac", "(aa.db)(af.dc).(bf.ac)"),
                ("[0:0:0]", "[5:-28:25]", "[17:-152:-14]", "0"),
            ),
        ],
        ids=["grid", "rational", "grid-zero-meet"],
    )
    def test_eval_prints_the_pascal_meets(self, scene, exprs, values, capsys):
        path = str(GOLDEN / f"{scene}.scene")
        for text, value in zip(exprs, values):
            code, out, _ = run_cli(["eval", "--in", path, "--expr", text], capsys)
            kind = "scalar" if value[0] != "[" else "point"
            assert (code, out.splitlines()[2]) == (0, f"output {kind} result = {value}")

    def test_eval_refuses_parentheses_nested_past_the_bound(self, capsys):
        """Past 100 levels a parse error (exit 3), not a RecursionError;
        100 levels evaluate."""
        grid = str(GOLDEN / "grid.scene")
        for depth, want in ((100, 0), (600, 3)):
            text = "(" * depth + "ab" + ")" * depth
            code, _, err = run_cli(["eval", "--in", grid, "--expr", text], capsys)
            assert code == want
        assert err == "error: more than 100 nested parentheses (at position 100)\n"

    @pytest.mark.parametrize("text", ["p_1p_2c", "xp_1p_2", "xp_1.p_2c"])
    def test_eval_writes_numbers_past_the_digit_limit(self, text, capsys):
        """On tall-output.scene a scalar, a form and a triple of forms with
        numbers longer than str() writes under its default limit of 4300
        digits: each printed number reads back as the evaluators' value."""
        path = GOLDEN / "tall-output.scene"
        code, out, _ = run_cli(["eval", "--in", str(path), "--expr", text], capsys)
        assert code == 0
        name, printed = out.splitlines()[2].split(" = ")
        assert max(map(len, re.findall(r"[0-9]+", printed))) > 4300
        scene = Scene.load(path)
        ast, env = parse(text), Environment({**scene.points, **scene.lines})
        if name == "output scalar result":
            assert parse_rational(printed) == eval_numeric(ast, env)
            return
        value = eval_symbolic(ast, env)
        want = [value.primitive()] if isinstance(value, HomPoly) else primitive_triple(value)
        got = [
            [parse_rational(c) for c in entry.strip("[] ").split(":")]
            for entry in printed.split(";")
        ]
        assert got == [f.coefficient_vector() for f in want]

    def test_group_add(self, tmp_path, capsys):
        import sys as _sys
        from pathlib import Path as _Path

        _sys.path.insert(0, str(_Path(__file__).parent))
        from curves import CURVES, FLEX, grow_pool, weierstrass

        pool = grow_pool(weierstrass(0, 17), CURVES[0][2], 20)
        from grassmann.constructions import NinePointLabels, general_position_violation
        import itertools

        nine = None
        for combo in itertools.combinations(pool, 9):
            if general_position_violation(combo) is None:
                nine = combo
                break
        lines = ["format: 1"]
        for name, pt in zip("abcdefghi", nine):
            lines.append(f"point {name} = " + ", ".join(str(c) for c in pt.coords))
        lines.append("point o = 0, 0, 1")
        extra = [p for p in pool if p not in nine]
        for idx, pt in enumerate(extra, start=1):
            lines.append(f"point p_{idx} = " + ", ".join(str(c) for c in pt.coords))
        path = tmp_path / "group.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            ["group_add", "--in", str(path), "--point", "o", "--point", "p_1", "--point", "p_2"],
            capsys,
        )
        assert code == 0
        assert "check commutes: pass" in out

    def test_random_scene_deterministic(self, capsys):
        code1, out1, _ = run_cli(["random", "--seed", "5", "--count", "2"], capsys)
        code2, out2, _ = run_cli(["random", "--seed", "5", "--count", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        scene = Scene.parse(out1)
        assert len(scene.points) == 11

    def test_random_refuses_a_negative_count(self, capsys):
        code, out, err = run_cli(["random", "--count", "-3"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: random takes a count of at least 0, not -3\n"

    def test_plot(self, scene_path, tmp_path, capsys):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run_plot(["--in", scene_path, "--out", str(out_path)], capsys)
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg")
        assert "<circle" in svg
        # curve segments drawn
        assert svg.count("<line") > 20

    def test_plot_deterministic(self, scene_path, capsys):
        code1, out1, _ = run_plot(["--in", scene_path], capsys)
        code2, out2, _ = run_plot(["--in", scene_path], capsys)
        assert out1 == out2

    def test_plot_ignores_term_order(self):
        scene = random_scene(7, count=1)
        cubic = expand_cubic(fit_nine_points(NinePointLabels.from_points(scene.nine_points())))
        expected = plot.render_svg(scene, plot._DEFAULT_BOX, cubic)
        rng = random.Random(9)
        for _ in range(5):
            terms = list(cubic.coeffs.items())
            rng.shuffle(terms)
            assert plot.render_svg(scene, plot._DEFAULT_BOX, HomPoly(3, dict(terms))) == expected

    @pytest.mark.parametrize("box", ["0, 0, -5, 5", "5, -5, 0, 5", "-5, 5, 0, 0", "-5, 5, 5, -5"])
    def test_plot_empty_viewport_exits_3(self, tmp_path, capsys, box):
        path = tmp_path / "box.txt"
        path.write_text(random_scene(7, count=1).serialize() + f"viewport = {box}\n")
        code, out, err = run_plot(["--in", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: line ") and "viewport" in err

    def test_plot_lays_points_out_in_the_scene_viewport(self, tmp_path, capsys):
        path = tmp_path / "box.txt"
        path.write_text("format: 1\nviewport = -4, 4, -2, 2\npoint p = 1, 1, 1\npoint q = 1, 0, 0\n")
        code, out, _ = run_plot(["--in", str(path)], capsys)
        assert code == 0
        assert '<circle cx="400.00" cy="160.00"' in out
        assert '<circle cx="320.00" cy="320.00"' in out

    def test_plot_draws_no_zero_length_or_repeated_segment(self):
        # the curve passes exactly through grid vertices of this scene
        scene = Scene.load(GOLDEN / "grid.scene")
        cubic = expand_cubic(fit_nine_points(NinePointLabels.from_points(scene.nine_points())))
        segments = plot._curve_segments(cubic, plot._DEFAULT_BOX)
        assert len(segments) > 800
        ends = [frozenset(segment) for segment in segments]
        assert [e for e in ends if len(e) != 2] == []
        assert len(set(ends)) == len(ends)

    def test_plot_prints_no_curve_segment_as_a_point(self):
        # some crossings of this scene fall within 0.005 px of a grid vertex
        scene = Scene.load(GOLDEN / "grid.scene")
        cubic = expand_cubic(fit_nine_points(NinePointLabels.from_points(scene.nine_points())))
        svg = plot.render_svg(scene, plot._DEFAULT_BOX, cubic)
        curve = re.findall(
            r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)" stroke="#1f77b4"', svg
        )
        assert len(curve) > 800
        assert [ends for ends in curve if ends[:2] == ends[2:]] == []

    def test_plot_draws_a_curve_whose_coefficients_overflow_a_float(self, tmp_path, capsys):
        # the nine labels moved by an integer map with 100-bit entries:
        # the cubic's coefficients exceed the float range
        rng = random.Random(1)
        m = [[rng.getrandbits(100) for _ in range(3)] for _ in range(3)]
        scene = Scene()
        for name, p in random_scene(7, count=0).points.items():
            scene.points[name] = Point(*(sum(r * c for r, c in zip(row, p.coords)) for row in m))
        cubic = expand_cubic(fit_nine_points(NinePointLabels.from_points(scene.nine_points())))
        assert max(abs(c) for c in cubic.coeffs.values()) > 2**1024
        path = tmp_path / "tall.txt"
        path.write_text(scene.serialize())
        code, out, _ = run_plot(["--in", str(path)], capsys)
        assert code == 0
        assert out.count('stroke="#1f77b4"') > 100

    def test_plot_without_the_nine_labels_draws_no_curve(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("format: 1\npoint p = 1, 2, 3\npoint q = 1, -1, 0\nline L = 1, 1, 1\n")
        code, out, _ = run_plot(["--in", str(path)], capsys)
        assert code == 0
        assert out.count("<circle") == 2
        assert out.count('stroke="#444444"') == 1
        assert "#1f77b4" not in out

    @pytest.mark.parametrize(
        "coords", ["0, 1, 1", "1, 1" + "0" * 400 + ", 0"], ids=["at-infinity", "beyond-floats"]
    )
    def test_plot_draws_no_circle_for_a_point_outside_every_chart_box(
        self, coords, tmp_path, capsys
    ):
        path = tmp_path / "far.txt"
        path.write_text(f"format: 1\npoint p = {coords}\npoint q = 1, 0, 0\n")
        code, out, _ = run_plot(["--in", str(path)], capsys)
        assert code == 0
        assert out.count("<circle") == 1 and ">q</text>" in out

    def test_plot_lays_out_lines_whatever_the_scale_of_their_coefficients(
        self, tmp_path, capsys
    ):
        # L lies beyond every float box; M is x = -1 and N is x = 1
        tall, tiny = "1" + "0" * 400, "1/1" + "0" * 20
        path = tmp_path / "lines.txt"
        path.write_text(
            f"format: 1\nline L = {tall}, 1, 1\nline M = {tall}, {tall}, 1\n"
            f"line N = {tiny}, -{tiny}, 0\n"
        )
        code, out, _ = run_plot(["--in", str(path)], capsys)
        assert code == 0
        assert out.count("<line") == 2
        assert '<line x1="293.33" y1="640.00" x2="293.33" y2="0.00"' in out
        assert '<line x1="346.67" y1="640.00" x2="346.67" y2="0.00"' in out

    @pytest.mark.parametrize(
        "box, message",
        [
            pytest.param(
                f"-1{'0' * 400}, 1{'0' * 400}, -1, 1",
                "viewport bounds must fit in a float",
                id="beyond-floats",
            ),
            pytest.param(
                f"0, 1/1{'0' * 400}, -1, 1",
                "viewport needs xmin < xmax and ymin < ymax in floats",
                id="equal-as-floats",
            ),
            pytest.param(
                "-1e308, 1e308, -1, 1",
                "viewport width and height must fit in a float",
                id="width-beyond-floats",
            ),
            pytest.param(
                "-1e200, 1e200, -1e200, 1e200",
                "viewport too large: floats cannot evaluate the curve on it",
                id="curve-beyond-floats",
            ),
        ],
    )
    def test_plot_refuses_a_viewport_floats_cannot_draw(self, box, message, tmp_path, capsys):
        # each box is exact and nonempty, so the scene format keeps it
        text = (GOLDEN / "grid.scene").read_text(encoding="utf-8") + f"viewport = {box}\n"
        assert Scene.parse(text).viewport is not None
        path = tmp_path / "box.txt"
        path.write_text(text)
        code, out, err = run_plot(["--in", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_plot_exits_2_on_nine_labels_that_fix_no_cubic(self, tmp_path, capsys):
        scene = random_scene(7, count=0)
        a, b = scene.points["a"], scene.points["b"]
        scene.points["c"] = Point(*(u + v for u, v in zip(a.coords, b.coords)))
        path = tmp_path / "collinear.txt"
        path.write_text(scene.serialize())
        code, out, err = run_plot(["--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("degenerate: ")

    def test_plot_without_a_scene_exits_3(self, capsys):
        assert run_plot([], capsys) == (3, "", "error: plot needs --in FILE\n")
        code, out, _ = run_plot(["--in", "/nonexistent/scene.txt"], capsys)
        assert (code, out) == (3, "")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["fit9", "--in", "/nonexistent/scene.txt"], capsys)
        assert code == 3

    def test_malformed_scene(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("format: 1\npoint a = 1, 2\n")
        code, _, err = run_cli(["fit9", "--in", str(path)], capsys)
        assert code == 3

    def test_empty_scene_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("format: 1\n")
        code, _, err = run_cli(["fit9", "--in", str(path)], capsys)
        assert code == 3
        assert "missing points" in err

    def test_identity_eval_on_minimal_scene(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("format: 1\npoint p = 1, 2, 3\npoint q = 0, 1, 1\n")
        code, out, _ = run_cli(["eval", "--in", str(path), "--expr", "pq"], capsys)
        assert code == 0
        assert "output line result" in out


GRID = (GOLDEN / "grid.scene").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "scene, argv, code, message",
    [
        # a report goes to --out byte for byte as it would go to stdout
        (GRID, ["fit9"], 0, None),
        (None, ["fit9"], 3, "this command needs --in FILE"),
        (GRID, ["eval"], 3, "eval needs --expr STRING"),
        ("format: 1\npoint a\n", ["fit9"], 3, "line 2: expected 'key = value'"),
        (GRID + "line A = 1, 2, 3\n", ["fit9"], 3, "line 19: duplicate line 'A'"),
        ("point a = 1, 2, 3\n", ["fit9"], 3, "line 1: scene must start with 'format: 1'"),
        ("# no entries\n", ["fit9"], 3, "empty scene: missing 'format: 1' header"),
        (GRID, ["check10", "--point", "q"], 3, "scene has no point named 'q'"),
    ],
    ids=["out", "no-in", "no-expr", "no-value", "duplicate-line", "no-header", "empty", "absent-point"],
)
def test_refusals_and_out(scene, argv, code, message, tmp_path, capsys):
    """Each refusal exits with its code and one message and writes no
    output, to stdout or to --out; a report goes to --out as it would go
    to stdout."""
    if scene is not None:
        path = tmp_path / "scene.txt"
        path.write_text(scene, encoding="utf-8")
        argv = [*argv, "--in", str(path)]
    expected_err = "" if message is None else f"error: {message}\n"
    got, out, err = run_cli(argv, capsys)
    assert (got, err) == (code, expected_err)
    assert (out == "") == (message is not None)
    report = tmp_path / "report.txt"
    assert run_cli([*argv, "--out", str(report)], capsys) == (code, "", expected_err)
    assert (report.read_text(encoding="utf-8") if report.exists() else "") == out


# draw 1260 of random_nine_points(Random(12345)): general position, but e is
# on the line g1h1, so the fit refuses by the name [e,g1,h1]
DRAW_1260 = "format: 1\n" + "".join(
    f"point {name} = 1, {u}, {v}\n"
    for name, u, v in (
        ("a", 6, -10), ("b", 1, 1), ("c", -2, -5), ("d", 5, 5), ("e", 6, 3),
        ("f", -5, 5), ("g", 7, -5), ("h", 7, -2), ("i", -7, 8),
    )
)
SUM_AB = ["group_add", "--no-verify-flex", "--point", "a", "--point", "b"]


@pytest.mark.parametrize(
    "scene, argv, code, message",
    [
        # a is not a flex of the seed-7 cubic
        (
            random_scene(7, count=1).serialize(),
            ["group_add", "--point", "a", "--point", "b", "--point", "c"],
            2,
            "degenerate: identity point is not a flex",
        ),
        # b_2 is twice b: summands given as two representatives of one point
        (GRID + "point b_2 = 2, -16, -4\n", [*SUM_AB, "--point", "b_2"], 0, None),
        (DRAW_1260, ["fit9"], 2, "degenerate: degenerate intermediate at step '[e,g1,h1]'"),
    ],
    ids=["not-a-flex", "scaled-summand", "e-on-g1h1"],
)
def test_module_entry_point_cases(scene, argv, code, message, tmp_path, capsys):
    """The answers the module entry point's exit-code run checks, in
    process: two refusals with their one message, and a sum whose summands
    are two representatives of one point, equal to the doubling."""
    path = tmp_path / "scene.txt"
    path.write_text(scene, encoding="utf-8")
    argv = [*argv, "--in", str(path)]
    got, out, err = run_cli(argv, capsys)
    if message is not None:
        assert (got, out, err) == (code, "", f"{message}\n")
        return
    assert (got, err) == (code, "")
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks and all(line.endswith(": pass") for line in checks)
    assert run_cli([*SUM_AB, "--point", "b", "--in", str(path)], capsys) == (0, out, "")


def test_binary_root_is_exact_beyond_float_precision():
    # the chord of y^2 = x^3 + 17 through [1:2:5] and 16 times [1:-2:3]
    # meets the curve again at a point whose coordinates all exceed 2^53;
    # the deflation oracle reads that root off the binary form exactly
    from curves import weierstrass

    from grassmann.core import incidence, join, projectively_equal
    from grassmann.oracle import third
    from grassmann.poly import evaluate

    f = weierstrass(0, 17)
    p = Point(1, 2, 5)
    q = Point(1, -2, 3)
    for _ in range(4):
        q = third(f, q, q)
    y = third(f, p, q)
    assert min(abs(c) for c in y.coords) > 2**53
    assert evaluate(f, y) == 0 and incidence(join(p, q), y) == 0
    assert not projectively_equal(y, p) and not projectively_equal(y, q)
    off_curve = Point(*(a + b for a, b in zip(p.coords, q.coords)))
    with pytest.raises(ValueError, match="chord endpoint does not lie on the curve"):
        third(f, p, off_curve)


class TestParserReuse:
    """`main` builds its parser once; no call may leak into the next."""

    def test_no_option_carries_over(self, scene_path, capsys):
        def point_defaults():
            return [build_parser().parse_args([name]).points for name in ("third_point", "fit9")]

        scene = ["--in", scene_path]
        _, plain_third, _ = run_cli(["third_point", *scene], capsys)
        _, plain_fit, _ = run_cli(["fit9", *scene], capsys)
        defaults = point_defaults()

        _, chord, _ = run_cli(["third_point", *scene, "--point", "c", "--point", "g"], capsys)
        assert run_cli(["third_point", *scene], capsys)[1] == plain_third != chord
        _, verbose, _ = run_cli(["fit9", *scene, "--verbose"], capsys)
        assert "output point g1 = " in verbose
        assert run_cli(["fit9", *scene], capsys)[1] == plain_fit != verbose

        assert all(again is default for again, default in zip(point_defaults(), defaults))
        assert defaults == [[], []]

    def test_argparse_error_between_calls(self, scene_path, capsys):
        _, before, _ = run_cli(["fit9", "--in", scene_path], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["fit9", "--in", scene_path, "--point", "a", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        code, after, _ = run_cli(["fit9", "--in", scene_path], capsys)
        assert code == 0
        assert after == before


COMMANDS = [
    "fit9",
    "check10",
    "eval",
    "third_point",
    "tangent",
    "tangent_third",
    "is_flex",
    "conic_sixth",
    "group_add",
    "random",
]


class TestParser:
    """One parser: a command and the same seven options for every command."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_option(self, command):
        argv = [
            command,
            *("--in", "s.txt", "--out", "o.txt", "--expr", "ab.cd"),
            *("--seed", "7", "--count", "2", "--point", "a", "--point", "b_1"),
            *("--verbose", "--no-verify-flex"),
        ]
        assert vars(build_parser().parse_args(argv)) == {
            "command": command,
            "infile": "s.txt",
            "outfile": "o.txt",
            "expr": "ab.cd",
            "seed": 7,
            "count": 2,
            "points": ["a", "b_1"],
            "verbose": True,
            "no_verify_flex": True,
        }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults(self, command):
        assert vars(build_parser().parse_args([command])) == {
            "command": command,
            "infile": None,
            "outfile": None,
            "expr": None,
            "seed": 0,
            "count": 0,
            "points": [],
            "verbose": False,
            "no_verify_flex": False,
        }

    # plot is tools/plot.py, not a command; eval prints what pascal printed
    @pytest.mark.parametrize(
        "argv", [["fit10"], ["Fit9"], [], ["fit9", "extra"], ["plot"], ["pascal"]]
    )
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: grassmann")
