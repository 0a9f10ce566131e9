import dataclasses
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassmann import constructions as cons
from grassmann import oracle
from grassmann.constructions import (
    DegenerateIntermediateError,
    FlexVerificationError,
    GeneralPositionViolation,
    HypothesisViolation,
    NinePointLabels,
    check_ten_points,
    conic_cubic_sixth,
    conic_line_second_intersection,
    evaluate_cubic,
    expand_cubic,
    fit_nine_points,
    fit_nine_points_trace,
    group_add,
    is_flex,
    tangent_at_a,
    tangent_third_point,
    tangent_third_at,
    third_point_general,
    third_point_on_chord_ab,
)
from grassmann.core import (
    KindError,
    Line,
    Point,
    bracket,
    canonicalize,
    incidence,
    join,
    meet,
    projectively_equal,
    scale,
)
from grassmann.expr import Environment, eval_numeric, eval_symbolic, parse
from grassmann.generate import random_nine_points, random_scene
from grassmann.scene import Scene
from grassmann.oracle import (
    gradient_tangent,
    hessian_flex_oracle,
    second_point,
)
from grassmann.poly import evaluate, nullspace_fit, restrict_to_line

from conftest import seeded_labels
from curves import (
    CURVES,
    FLEX,
    grow_pool,
    nine_with_anchor,
    weierstrass,
)
from exprgen import params_environment


def proportional(u, v):
    pivot = next(((a, b) for a, b in zip(u, v) if a or b), None)
    if pivot is None:
        return True
    pa, pb = pivot
    return pa != 0 and pb != 0 and all(a * pb == b * pa for a, b in zip(u, v))


class TestFitNinePoints:
    def test_all_nine_on_cubic(self, labels9):
        params = fit_nine_points(labels9)
        assert all(evaluate_cubic(params, p) == 0 for p in labels9)

    def test_matches_nullspace_oracle(self, labels9):
        params = fit_nine_points(labels9)
        expanded = expand_cubic(params)
        assert expanded.degree == 3 and not expanded.is_zero
        fitted = nullspace_fit(labels9, 3)
        assert proportional(expanded.coefficient_vector(), fitted.coefficient_vector())

    def test_primitive_expansion_is_nullspace_fit_on_random_scenes(self):
        for seed in range(50):
            nine = random_scene(seed).nine_points()
            params = fit_nine_points(NinePointLabels.from_points(nine))
            assert expand_cubic(params).primitive() == nullspace_fit(nine, 3)

    def test_closed_form_is_the_symbolic_expansion(self):
        """expand_cubic's 27 brackets give the form that the expression
        evaluator expands from CUBIC_EXPRESSION: on grid scene fits and on
        the fit of the rational golden scene, whose points have Fraction
        coordinates."""
        rational = Scene.load(Path(__file__).parent / "golden" / "rational.scene")
        assert any(type(c) is Fraction for p in rational.nine_points() for c in p.coords)
        for scene in [*(random_scene(seed, 2) for seed in range(40)), rational]:
            params = fit_nine_points(NinePointLabels.from_points(scene.nine_points()))
            expected = eval_symbolic(parse(cons.CUBIC_EXPRESSION), params_environment(params))
            assert expand_cubic(params) == expected

    def test_collinear_points_rejected(self, labels9):
        # the labels are the nine points in order, named a..i
        assert tuple(labels9) == tuple(getattr(labels9, n) for n in "abcdefghi")
        pts = list(labels9)
        pts[2] = Point(*(a + b for a, b in zip(pts[0].coords, pts[1].coords)))
        with pytest.raises(GeneralPositionViolation) as exc:
            fit_nine_points(NinePointLabels.from_points(pts))
        assert set(exc.value.names) == {"a", "b", "c"}

    def test_fit_certificate_k_on_auxiliary_cubic(self, labels9):
        params, steps = fit_nine_points_trace(labels9)
        bindings = {
            "f": labels9.f,
            "g_1": steps["g1"],
            "g_2": steps["g2"],
            "h_1": steps["h1"],
            "h_2": steps["h2"],
            "C": params.C,
        }
        aux = parse("(xf.xg_2Cg_1.xh_2Ch_1)")
        for pt in (params.k, steps["y"], steps["z"]):
            assert eval_numeric(aux, Environment(bindings, x=pt)) == 0
        for pt in (steps["y"], steps["z"]):
            assert incidence(params.B, pt) != 0
            assert incidence(params.C, pt) != 0

    def test_fit_chain_collapse_at_d(self, labels9):
        params, _ = fit_nine_points_trace(labels9)
        d, c = labels9.d, labels9.c
        L = eval_numeric(parse("xaAa_1"), params_environment(params, x=d))
        da1 = join(d, params.a1)
        cd = join(c, d)
        assert projectively_equal(L, da1)
        assert projectively_equal(da1, cd)

    def test_lines_concurrent_at_e(self, labels9):
        params = fit_nine_points(labels9)
        assert bracket(params.A, params.B, params.C) == 0
        for name in ("A", "B", "C"):
            assert incidence(getattr(params, name), labels9.e) == 0


class TestCubicParamsValidate:
    @pytest.fixture
    def params(self, labels9):
        return fit_nine_points(labels9)

    @pytest.mark.parametrize("name", ["a", "a1", "b", "b1", "c", "k", "A", "B", "C"])
    def test_zero_parameter_refused(self, params, name):
        zero = Point(0, 0, 0) if name.islower() else Line(0, 0, 0)
        with pytest.raises(HypothesisViolation, match=f"parameter {name} is a zero object"):
            dataclasses.replace(params, **{name: zero}).validate()

    @pytest.mark.parametrize("m, n", [("A", "B"), ("A", "C"), ("B", "C")])
    def test_coinciding_lines_refused(self, params, m, n):
        # a nonzero multiple of m in the slot of n
        same = Line(*(-3 * t for t in getattr(params, m).coords))
        with pytest.raises(HypothesisViolation, match=f"lines {m} and {n} coincide"):
            dataclasses.replace(params, **{n: same}).validate()

    def test_zero_check_comes_first(self, params):
        # C is zero and A, B coincide: the zero parameter is reported
        bad = dataclasses.replace(params, B=params.A, C=Line(0, 0, 0))
        with pytest.raises(HypothesisViolation, match="parameter C is a zero object"):
            bad.validate()

    def test_non_concurrent_lines_refused(self, params):
        center = meet(params.A, params.B)
        C = next(
            L
            for L in (Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1))
            if incidence(L, center) != 0
        )
        with pytest.raises(HypothesisViolation, match="lines A, B, C are not concurrent"):
            dataclasses.replace(params, C=C).validate()


class TestCheckTenPoints:
    def test_chord_point_is_on_cubic(self, labels9):
        nine = list(labels9)
        p10 = third_point_general(nine, labels9.a, labels9.b)
        assert check_ten_points(labels9, p10)

    def test_off_curve_point(self, labels9):
        params = fit_nine_points(labels9)
        f = expand_cubic(params)
        p = labels9.a
        for bump in itertools.count(1):
            candidate = Point(p.coords[0], p.coords[1], p.coords[2] + bump)
            if evaluate(f, candidate) != 0:
                break
        assert not check_ten_points(labels9, candidate)

    def test_one_of_the_nine(self, labels9):
        assert check_ten_points(labels9, labels9.h)

    def test_the_zero_point_is_refused(self, labels9):
        # every cubic bracket vanishes at the zero triple, which is no point
        with pytest.raises(HypothesisViolation, match="the tenth point is the zero point"):
            check_ten_points(labels9, Point(0, 0, 0))


class TestThirdPoint:
    def test_matches_deflation_oracle(self, labels9):
        params = fit_nine_points(labels9)
        y = third_point_on_chord_ab(params)
        f = expand_cubic(params)
        assert projectively_equal(y, oracle.third(f, params.a, params.b))

    def test_on_chord_and_cubic(self, labels9):
        params = fit_nine_points(labels9)
        y = third_point_on_chord_ab(params)
        assert incidence(join(params.a, params.b), y) == 0
        assert evaluate_cubic(params, y) == 0

    def test_tangent_chord_returns_contact_point(self):
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 14)
        p = pool[0]
        t3 = oracle.third(f, p, p)  # chord p..t3 is the tangent at p
        labels = nine_with_anchor([p, t3] + [q for q in pool if q not in (p, t3)], p)
        # force t3 into the second slot
        rest = [q for q in pool if not projectively_equal(q, p) and not projectively_equal(q, t3)]
        for combo in itertools.combinations(rest, 7):
            nine = (p, t3, *combo)
            if cons.general_position_violation(nine) is None:
                labels = NinePointLabels.from_points(nine)
                break
        params = fit_nine_points(labels)
        y = third_point_on_chord_ab(params)
        assert projectively_equal(y, p)
        assert oracle.tangent_third(expand_cubic(params), join(p, t3), p)[0] == 2

    def test_general_equals_oracle(self, labels9):
        nine = list(labels9)
        p, q = labels9.c, labels9.g
        y = third_point_general(nine, p, q)
        assert projectively_equal(y, oracle.third(nullspace_fit(nine, 3), p, q))

    def test_chord_involution(self, labels9):
        nine = list(labels9)
        p, q = labels9.a, labels9.d
        m = third_point_general(nine, p, q)
        back = third_point_general(nine + [m], p, m)
        assert projectively_equal(back, q)

    def test_independent_of_auxiliary_choice(self, labels9):
        nine = list(labels9)
        p, q = labels9.a, labels9.b
        first = third_point_general(nine, p, q)
        second = third_point_general(nine[::-1], p, q)
        assert projectively_equal(first, second)

    def test_distinct_endpoints_required(self, labels9):
        with pytest.raises(HypothesisViolation, match="chord endpoints coincide"):
            third_point_general(list(labels9), labels9.a, labels9.a)


class TestTangent:
    def test_matches_gradient_oracle(self, labels9):
        params = fit_nine_points(labels9)
        T = tangent_at_a(params)
        grad = gradient_tangent(expand_cubic(params), params.a)
        assert projectively_equal(T, grad)

    def test_tangent_through_a(self, labels9):
        params = fit_nine_points(labels9)
        assert incidence(tangent_at_a(params), params.a) == 0

    def test_contact_order_two(self, labels9):
        params = fit_nine_points(labels9)
        T = tangent_at_a(params)
        f = expand_cubic(params)
        assert oracle.tangent_third(f, T, params.a)[0] >= 2

    def test_singular_point_raises(self):
        # nodal cubic x0^2 x2 = x1^2 (x0 + x2) with its node in the anchor slot
        from test_oracle import NODAL, NODE, nodal_point

        pts = [NODE]
        t = 2
        while len(pts) < 9:
            cand = canonicalize(nodal_point(Fraction(t)))
            t += 1
            if any(projectively_equal(cand, p) for p in pts):
                continue
            if cons.general_position_violation(pts + [cand]) is None:
                pts.append(cand)
        labels = NinePointLabels.from_points(pts)
        params = fit_nine_points(labels)
        expanded = expand_cubic(params)
        assert proportional(expanded.coefficient_vector(), NODAL.coefficient_vector())
        # the tangent is defined at smooth points only; the formula
        # degenerates at the node, as the tangent-third construction does
        with pytest.raises(DegenerateIntermediateError) as refusal:
            tangent_at_a(params)
        assert refusal.value.step == "p=abBkCb1.ac"
        with pytest.raises(DegenerateIntermediateError):
            tangent_third_point(params)


class TestConicLineSecondIntersection:
    CIRCLE = [Point(1, 1, 0), Point(1, 0, 1), Point(1, -1, 0), Point(1, 0, -1), Point(5, 3, 4)]

    def test_secant(self):
        known = self.CIRCLE[0]
        L = join(known, self.CIRCLE[4])
        res = conic_line_second_intersection(self.CIRCLE, L, known)
        assert projectively_equal(res, self.CIRCLE[4])

    def test_matches_deflation_oracle(self):
        rng = random.Random(4)
        from test_acceptance import _conic_pencil_points

        checked = 0
        while checked < 100:
            if checked % 2 == 0:
                five = self.CIRCLE
            else:
                five, _ = _conic_pencil_points(rng, 5)
            try:
                conic = nullspace_fit(five, 2)
            except Exception:
                continue
            known = five[rng.randrange(5)]
            probe = Point(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if probe.is_zero or projectively_equal(probe, known):
                continue
            L = join(known, probe)
            if L.is_zero:
                continue
            try:
                res = conic_line_second_intersection(five, L, known)
            except DegenerateIntermediateError:
                continue
            assert incidence(L, res) == 0
            assert evaluate(conic, res) == 0
            form = restrict_to_line(conic, known, probe)
            assert form[0] == 0
            if form[1] != 0:
                expected = Point(
                    *(
                        -form[2] * kc + form[1] * pc
                        for kc, pc in zip(known.coords, probe.coords)
                    )
                )
                assert projectively_equal(res, expected)
            else:
                assert projectively_equal(res, known)
            checked += 1

    def test_tangent_line_gives_the_known_point(self):
        # tangent to x1^2 + x2^2 = x0^2 at (1, 1, 0) is x0 - x1 = 0
        known = Point(1, 1, 0)
        T = Line(1, -1, 0)
        res = conic_line_second_intersection(self.CIRCLE, T, known)
        assert projectively_equal(res, known)

    def test_known_must_be_on_line(self):
        with pytest.raises(HypothesisViolation):
            conic_line_second_intersection(self.CIRCLE, Line(1, 0, 0), Point(1, 1, 0))

    def test_known_must_be_on_conic(self):
        L = join(Point(1, 5, 5), Point(1, 1, 0))
        with pytest.raises(HypothesisViolation):
            conic_line_second_intersection(self.CIRCLE, L, Point(1, 5, 5))

    def test_kinds_are_checked(self):
        """Lines among the five, a point as L or a line as `known` are
        refused by kind, even where the coordinates would serve."""
        known = self.CIRCLE[0]
        L = join(known, self.CIRCLE[4])
        one_line = [*self.CIRCLE[:4], Line(*self.CIRCLE[4].coords)]
        for five, line, pt in (
            ([Line(*pt.coords) for pt in self.CIRCLE], L, known),
            (one_line, L, known),
            (self.CIRCLE, Point(*L.coords), known),
            (self.CIRCLE, L, Line(*known.coords)),
        ):
            with pytest.raises(KindError):
                conic_line_second_intersection(five, line, pt)


# the auxiliary conic of tangent_third_point, with q the tangent's contact
# with A, and the lemma point y it takes as its fourth conic point
AUX_CONIC = parse("(qa_1.xc.xbBkCb_1)")
LEMMA_Y = parse("b_1cCkBb.b_1c")


def tangent_contact(params):
    """q, where the tangent at a crosses the line A."""
    return meet(tangent_at_a(params), params.A)


def tangent_third_record(params):
    """tangent_third_point's w, and the five auxiliary-conic points it hands
    to the second-intersection step, recorded from that call."""
    calls = []
    kernel = cons._second_intersection

    def recorded(five, pair, L, known):
        calls.append(five)
        return kernel(five, pair, L, known)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "_second_intersection", recorded)
        w = tangent_third_point(params)
    return w, tuple(Point(*t) for t in calls[0])


class TestTangentThird:
    def test_result_checks(self, labels9):
        params = fit_nine_points(labels9)
        w, five = tangent_third_record(params)
        assert incidence(tangent_at_a(params), w) == 0
        assert evaluate_cubic(params, w) == 0
        # the auxiliary conic passes through all recorded points
        conic = eval_symbolic(AUX_CONIC, params_environment(params, q=tangent_contact(params)))
        for pt in five:
            assert evaluate(conic, pt) == 0

    def test_y_is_second_point_of_lambda_on_conic(self):
        # y = b1cCkBb.b1c is the second intersection of lambda = cb1CkBb
        # with the conic xbBkCb1x = 0 (the proof in tangent_third_point),
        # checked against an independent fit of that conic
        conic_ast = parse("xbBkCb_1x")
        lam_ast = parse("cb_1CkBb")
        five_asts = [parse(t) for t in ("b", "b_1", "BC", "b_1kB", "bkC")]
        checked, seed = 0, 13000
        while checked < 200:
            seed += 1
            try:
                params = fit_nine_points(seeded_labels(seed))
            except DegenerateIntermediateError:
                # a labelled fit that refuses general-position input is a
                # separate, known gap of the fit; it builds no y to check
                continue
            env = params_environment(params)
            y, b = eval_numeric(LEMMA_Y, env), params.b
            lam = eval_numeric(lam_ast, env)
            assert eval_numeric(conic_ast, params_environment(params, x=y)) == 0
            assert incidence(lam, y) == 0
            conic = nullspace_fit([eval_numeric(t, env) for t in five_asts], 2)
            u = second_point(lam, b)
            form = restrict_to_line(conic, b, u)
            assert form[0] == 0
            if form[1] == 0:
                # lambda is tangent to the conic at b
                assert projectively_equal(y, b)
            else:
                second = Point(
                    *(-form[2] * bc + form[1] * uc for bc, uc in zip(b.coords, u.coords))
                )
                assert projectively_equal(y, second)
            checked += 1

    def test_conic_points_on_auxiliary_conic_many(self):
        # the five conic points are built by joins and meets only; an
        # independent symbolic expansion of the auxiliary conic checks them
        checked, seed = 0, 15000
        while checked < 200:
            seed += 1
            try:
                params = fit_nine_points(seeded_labels(seed))
            except DegenerateIntermediateError:
                continue
            _, five = tangent_third_record(params)
            conic = eval_symbolic(AUX_CONIC, params_environment(params, q=tangent_contact(params)))
            assert not conic.is_zero
            assert len(five) == 5
            for pt in five:
                assert evaluate(conic, pt) == 0
            for u, v in itertools.combinations(five, 2):
                assert not projectively_equal(u, v)
            checked += 1

    def test_fifth_point_falls_back_to_a1(self):
        # on this selection the first candidate qc.qb1CkBb is the zero
        # triple, so the fifth conic point comes from m = a1
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 20)
        anchor = Point(1, -2, 3)
        labels = nine_with_anchor(pool, anchor)
        params = fit_nine_points(labels)
        w = tangent_third_point(params)
        aux_env = params_environment(params, q=tangent_contact(params))
        assert eval_numeric(parse("qc.qb_1CkBb"), aux_env).is_zero
        assert projectively_equal(w, oracle.third(f, anchor, anchor))
        assert not projectively_equal(w, params.a)

    def test_collapsed_y_is_replaced_by_a_lemma_point(self):
        # on 8 of the first three anchored selections at each point of this
        # pool, y = b1cCkBb.b1c collapses onto b or c; the two x5 points
        # then complete the five conic points
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 40)
        collapsed = 0
        for p in pool:
            others = [pt for pt in pool if pt != p]
            for aux in itertools.islice(cons._general_position_selections([p], others, 8), 3):
                try:
                    params = fit_nine_points(NinePointLabels.from_points((p, *aux)))
                    w, five = tangent_third_record(params)
                except DegenerateIntermediateError as exc:
                    # the tangent formula's own degenerate step, or the fit's
                    assert "five points" not in str(exc)
                    continue
                aux_env = params_environment(params, q=tangent_contact(params))
                y = eval_numeric(LEMMA_Y, aux_env)
                x5s = [eval_numeric(parse(t), aux_env) for t in ("qc.qb_1CkBb", "a_1c.a_1b_1CkBb")]
                abc = (params.a, params.b, params.c)
                if any(projectively_equal(y, u) for u in abc):
                    collapsed += 1
                    assert five[:3] == abc
                    assert five[3:] == tuple(canonicalize(x) for x in x5s)
                    assert evaluate_cubic(params, w) == 0
                    assert projectively_equal(w, oracle.third(f, p, p))
                    assert projectively_equal(w, tangent_third_at(pool, p))
                else:
                    assert five[:4] == (*abc, canonicalize(y))
                    first = x5s[0]
                    usable = not first.is_zero and not any(
                        projectively_equal(first, u) for u in five[:4]
                    )
                    expected = first if usable else x5s[1]
                    assert five[4] == canonicalize(expected)
        assert collapsed == 8

    def test_matches_cubic_deflation_oracle(self, labels9):
        params = fit_nine_points(labels9)
        w = tangent_third_point(params)
        f = expand_cubic(params)
        mult, expected = oracle.tangent_third(f, tangent_at_a(params), params.a)
        assert mult >= 2
        assert projectively_equal(w, expected)

    def test_flex_fixture(self):
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 14)
        labels = nine_with_anchor(pool, FLEX)
        params = fit_nine_points(labels)
        assert projectively_equal(tangent_third_point(params), FLEX)
        assert is_flex(params)
        assert hessian_flex_oracle(expand_cubic(params), FLEX)

    def test_generic_point_not_flex(self, labels9):
        params = fit_nine_points(labels9)
        assert not is_flex(params)
        assert not hessian_flex_oracle(expand_cubic(params), params.a)

    # the tangent third point against the line oracle's on the cubic fitted
    # by nullspace_fit through the nine labelled points

    def test_via_89_agreement(self, labels9):
        a = labels9.a
        params = fit_nine_points(labels9)
        w = tangent_third_point(params)
        assert projectively_equal(w, oracle.third(nullspace_fit(labels9, 3), a, a))
        assert evaluate_cubic(params, w) == 0

    def test_via_89_agreement_many(self):
        for i in range(100):
            labels = seeded_labels(12000 + i)
            a = labels.a
            w = tangent_third_point(fit_nine_points(labels))
            assert projectively_equal(w, oracle.third(nullspace_fit(labels, 3), a, a))

    def test_via_89_flex_case(self):
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 16)
        labels = nine_with_anchor(pool, FLEX)
        w = tangent_third_point(fit_nine_points(labels))
        assert projectively_equal(w, oracle.third(nullspace_fit(labels, 3), FLEX, FLEX))
        assert projectively_equal(w, FLEX)


# the auxiliary cubic of conic_cubic_sixth, and the eight points of it
# that the construction builds by joins and meets
AUX_CUBIC = parse("(xa_1Aa.xb_1CkBb.xc)")
AUX_POOL = [
    parse(t) for t in ("c", "a_1", "b_1", "acA", "bc.baAa_1", "gc.gaAa_1", "hc.haAa_1", "ic.iaAa_1")
]


@functools.lru_cache(maxsize=None)
def sixth_cases():
    """200 seeded scenes, each followed by a Fraction-scaled copy."""
    cases = []
    for seed in range(17001, 17201):
        labels = seeded_labels(seed)
        scaled = NinePointLabels.from_points(
            scale(Fraction(2 * n + 1, n + 3), p) for n, p in enumerate(labels)
        )
        cases += [labels, scaled]
    return cases


def fitted_sixth_cases():
    """(labels, params) for the cases whose labelled fit succeeds."""
    for labels in sixth_cases():
        try:
            yield labels, fit_nine_points(labels)
        except DegenerateIntermediateError:
            continue


def oracle_sixth(labels):
    """The sixth conic point by the oracle chord chain a.((cd).(ef)) on the
    nullspace cubic through the nine, as the CLI's conic_sixth check
    builds it."""
    cubic = nullspace_fit(labels, 3)

    def third(u, v):
        return oracle.third(cubic, u, v)

    return third(labels.a, third(third(labels.c, labels.d), third(labels.e, labels.f)))


def deflation_y(labels, params):
    """The third point of ef on the auxiliary cubic by the polynomial
    route: expand the cubic, restrict it to ef and deflate the known
    roots e and f."""
    e, f = labels.e, labels.f
    form = restrict_to_line(eval_symbolic(AUX_CUBIC, params_environment(params)), e, f)
    assert form[0] == 0 and form[3] == 0
    c1, c2 = form[1], form[2]
    return canonicalize(Point(*(-c2 * ec + c1 * fc for ec, fc in zip(e.coords, f.coords))))


class TestConicCubicSixth:
    def test_chord_pool_on_auxiliary_cubic(self):
        checked = 0
        for labels, params in fitted_sixth_cases():
            named = labels._asdict()
            env = params_environment(params, **named)
            for ast in (*AUX_POOL, parse("e"), parse("f")):
                x = eval_numeric(ast, env)
                assert eval_numeric(AUX_CUBIC, params_environment(params, x=x, **named)) == 0
            checked += 1
        assert checked >= 390

    def test_y_matches_deflation_of_auxiliary_cubic(self):
        checked = 0
        for labels, params in fitted_sixth_cases():
            z, y = conic_cubic_sixth(labels)
            assert y == deflation_y(labels, params)
            env = params_environment(params, x=y)
            assert z == canonicalize(eval_numeric(parse("xc.xa_1Aa"), env))
            checked += 1
        assert checked >= 390

    def test_refusals_are_fit_refusals(self):
        refused = 0
        k_vanishes = NinePointLabels.from_points(Point(*t) for t in K_VANISHES)
        for labels in (*sixth_cases(), k_vanishes):
            try:
                conic_cubic_sixth(labels)
            except cons.ConstructionError:
                refused += 1
                with pytest.raises(cons.ConstructionError):
                    fit_nine_points(labels)
        assert 1 <= refused < 10

    def test_on_both_curves(self, labels9):
        z, _ = conic_cubic_sixth(labels9)
        conic = nullspace_fit(
            [labels9.a, labels9.c, labels9.d, labels9.e, labels9.f], 2
        )
        cubic = nullspace_fit(labels9, 3)
        assert evaluate(conic, z) == 0
        assert evaluate(cubic, z) == 0

    def test_chord_chain_agreement(self, labels9):
        z, _ = conic_cubic_sixth(labels9)
        assert projectively_equal(z, oracle_sixth(labels9))

    def test_more_instances(self):
        for seed in (201, 202, 203):
            labels = seeded_labels(seed)
            z, _ = conic_cubic_sixth(labels)
            assert projectively_equal(z, oracle_sixth(labels))

    @staticmethod
    def _sixth_by_parameterization(labels):
        """Independent enumeration of the sixth intersection point.

        The conic through a, c, d, e, f is parameterized rationally by the
        line pencil through a: with M the symmetric matrix of the conic and
        v a direction point, x(v) = (v'Mv) a - 2(a'Mv) v sweeps the conic.
        Composing with the cubic gives a binary sextic in the pencil
        parameter whose six roots are the intersection parameters; the five
        known ones (c, d, e, f and the tangent parameter of a) are deflated
        away and the last root is returned as a point.
        """
        a = labels.a
        shared = [labels.c, labels.d, labels.e, labels.f]
        conic = nullspace_fit([a, *shared], 2)
        cubic = nullspace_fit(labels, 3)

        m = [[Fraction(0)] * 3 for _ in range(3)]
        for (i, j, k), coeff in conic.coeffs.items():
            idxs = [n for n, e in enumerate((i, j, k)) for _ in range(e)]
            if idxs[0] == idxs[1]:
                m[idxs[0]][idxs[0]] = coeff
            else:
                m[idxs[0]][idxs[1]] = coeff / 2
                m[idxs[1]][idxs[0]] = coeff / 2

        def mul(v):
            return [sum(m[r][cc] * v[cc] for cc in range(3)) for r in range(3)]

        def q_form(v):
            return sum(vc * mc for vc, mc in zip(v, mul(v)))

        def polar(v):
            return sum(ac * mc for ac, mc in zip(a.coords, mul(v)))

        def x_of(v):
            lam, mu = q_form(v), -2 * polar(v)
            return Point(*(lam * ac + mu * vc for ac, vc in zip(a.coords, v)))

        # pencil coordinates: directions v = s*u1 + t*u2 on a line missing a
        u1, u2 = Point(1, 0, 0), Point(0, 1, 0)
        if incidence(join(u1, u2), a) == 0:
            u2 = Point(0, 0, 1)
        axis = join(u1, u2)

        def lin(s, t):
            return tuple(s * c1 + t * c2 for c1, c2 in zip(u1.coords, u2.coords))

        samples = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
        rows = [
            [Fraction(s) ** (6 - mth) * Fraction(t) ** mth for mth in range(7)]
            for s, t in samples
        ]
        rhs = [evaluate(cubic, x_of(lin(Fraction(s), Fraction(t)))) for s, t in samples]
        aug = [row + [rhs[idx]] for idx, row in enumerate(rows)]
        for col in range(7):
            piv = next(r for r in range(col, 7) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [v / aug[col][col] for v in aug[col]]
            for r in range(7):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [vr - factor * vc for vr, vc in zip(aug[r], aug[col])]
        sextic = [aug[r][7] for r in range(7)]

        def param_of(v):
            for i, j in ((0, 1), (0, 2), (1, 2)):
                det = u1.coords[i] * u2.coords[j] - u1.coords[j] * u2.coords[i]
                if det != 0:
                    s = v.coords[i] * u2.coords[j] - v.coords[j] * u2.coords[i]
                    t = u1.coords[i] * v.coords[j] - u1.coords[j] * v.coords[i]
                    return (Fraction(s, det), Fraction(t, det))
            raise AssertionError("direction not in pencil coordinates")

        known_params = [param_of(meet(join(a, p), axis)) for p in shared]
        # the parameter mapping to a itself: polar(v) = 0, i.e. the tangent
        tangent_dir = meet(Line(*mul(a.coords)), axis)
        known_params.append(param_of(tangent_dir))
        for s, t in known_params:
            sextic = _deflate(sextic, s, t)
        assert len(sextic) == 2
        s6, t6 = -sextic[1], sextic[0]
        return x_of(lin(s6, t6))

    def test_matches_parameterization_oracle(self):
        for seed in (211, 212, 213, 214, 215, 216, 217, 218, 219, 220):
            labels = seeded_labels(seed)
            z, _ = conic_cubic_sixth(labels)
            z_enum = self._sixth_by_parameterization(labels)
            assert not z_enum.is_zero
            assert projectively_equal(z, z_enum)


def _deflate(form, s0, t0):
    """Exact division of a binary form by t0*s - s0*t, for a root (s0:t0)."""
    if t0 == 0:
        assert form[0] == 0
        return [c / -s0 for c in form[1:]]
    quotient, rem = [], form[0]
    for c in form[1:]:
        quotient.append(rem / t0)
        rem = c + quotient[-1] * s0
    assert rem == 0
    return quotient


@pytest.fixture(scope="module")
def curve_pool():
    f = weierstrass(0, 17)
    pool = grow_pool(f, CURVES[0][2], 16)
    return f, pool


class TestGroupLaw:
    def test_identity_law(self, curve_pool):
        f, pool = curve_pool
        known = pool
        p = pool[3]
        total = group_add(known, FLEX, p, FLEX, verify_flex=False)
        assert projectively_equal(total, p)

    def test_commutativity(self, curve_pool):
        f, pool = curve_pool
        known = pool
        s1 = group_add(known, FLEX, pool[0], pool[2], verify_flex=False)
        s2 = group_add(known, FLEX, pool[2], pool[0], verify_flex=False)
        assert projectively_equal(s1, s2)
        assert evaluate(f, s1) == 0

    def test_associativity_small(self, curve_pool):
        f, pool = curve_pool
        known = pool
        p, q, r = pool[0], pool[3], pool[5]
        pq = group_add(known, FLEX, p, q, verify_flex=False)
        qr = group_add(known, FLEX, q, r, verify_flex=False)
        lhs = group_add(known + [pq], FLEX, pq, r, verify_flex=False)
        rhs = group_add(known + [qr], FLEX, p, qr, verify_flex=False)
        assert projectively_equal(lhs, rhs)

    def test_inverse_pair_sums_to_identity(self, curve_pool):
        f, pool = curve_pool
        p = pool[0]
        minus_p = Point(p.coords[0], p.coords[1], -p.coords[2])
        assert evaluate(f, minus_p) == 0
        total = group_add(pool, FLEX, p, minus_p, verify_flex=False)
        assert projectively_equal(total, FLEX)

    def test_flex_verification_rejects_non_flex(self, curve_pool):
        f, pool = curve_pool
        with pytest.raises(FlexVerificationError):
            group_add(pool + [FLEX], pool[0], pool[1], pool[2], verify_flex=True)

    def test_flex_verification_accepts_flex(self, curve_pool):
        f, pool = curve_pool
        total = group_add(pool + [FLEX], FLEX, pool[0], pool[1], verify_flex=True)
        assert evaluate(f, total) == 0


@pytest.fixture(scope="module")
def group_pool():
    """The 40-point pool of the criterion-09 group-law test."""
    f = weierstrass(0, 17)
    return f, grow_pool(f, CURVES[0][2], 40)


class TestKnownPool:
    @pytest.mark.parametrize("as_known", [list, cons._known_pool])
    def test_zero_points_refused(self, group_pool, as_known):
        f, pool = group_pool
        known = as_known(pool)
        zero = Point(0, 0, 0)
        with pytest.raises(HypothesisViolation):
            third_point_general(known, zero, pool[0])
        with pytest.raises(HypothesisViolation):
            third_point_general(known, zero, zero)
        with pytest.raises(HypothesisViolation):
            tangent_third_at(known, zero)
        with pytest.raises(HypothesisViolation):
            group_add(known, FLEX, zero, pool[0], verify_flex=False)
        with pytest.raises(HypothesisViolation):
            group_add(known, FLEX, zero, zero, verify_flex=False)

    @pytest.mark.parametrize(
        "call",
        [
            lambda pool: conic_line_second_intersection(
                TestConicLineSecondIntersection.CIRCLE, Line(1, -1, 0), Point(0, 0, 0)
            ),
            lambda pool: conic_line_second_intersection(
                TestConicLineSecondIntersection.CIRCLE, Line(0, 0, 0), Point(1, 1, 0)
            ),
        ],
        ids=["second_intersection-known", "second_intersection-L"],
    )
    def test_zero_inputs_refused_up_front(self, group_pool, call):
        with pytest.raises(HypothesisViolation):
            call(group_pool[1])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_line_in_a_point_slot_is_refused(self, group_pool, warm):
        """A line as the identity, a summand, a chord endpoint or the
        tangent point raises KindError, also when group_add has cached
        fits at points with the line's coordinates, and a zero line too."""
        f, pool = group_pool
        p, q = pool[3], pool[7]
        if warm:
            group_add(pool, FLEX, p, q, verify_flex=False)
            group_add(pool, FLEX, p, p, verify_flex=False)
            assert cons._ANCHOR_CACHE
        calls = [
            lambda line: group_add(pool, line(FLEX), p, q, verify_flex=False),
            lambda line: group_add(pool, FLEX, line(p), q, verify_flex=False),
            lambda line: group_add(pool, FLEX, p, line(q), verify_flex=False),
            lambda line: third_point_general(pool, line(p), q),
            lambda line: third_point_general(pool, p, line(q)),
            lambda line: tangent_third_at(pool, line(p)),
        ]
        for call in calls:
            for line in (lambda pt: Line(*pt.coords), lambda pt: Line(0, 0, 0)):
                with pytest.raises(KindError):
                    call(line)

    def test_duplicates_do_not_change_results(self, group_pool, monkeypatch):
        f, pool = group_pool
        p, q = pool[0], pool[7]
        # a zero point first, projective duplicates of every point, the copy
        # first for odd indices, scaled copies of the endpoints and a zero
        # triple with a Fraction entry at the end
        noisy = [Point(0, 0, 0)]
        for idx, pt in enumerate(pool):
            pair = [pt, scale(2, pt)]
            noisy += pair[::-1] if idx % 2 else pair
        noisy += [scale(-3, p), scale(5, q), Point(Fraction(0), 0, 0)]
        expected = (
            third_point_general(pool, p, q),
            tangent_third_at(pool, p),
            group_add(pool, FLEX, p, q, verify_flex=False),
            group_add(pool, FLEX, p, p, verify_flex=False),
        )
        known = cons._known_pool(noisy)
        assert list(known) == [canonicalize(pt).coords for pt in pool]
        assert list(known.values()) == [scale(2, pt) if idx % 2 else pt for idx, pt in enumerate(pool)]

        # summands given as two representatives of one point coincide
        calls = []

        def counting(known, pt):
            calls.append(pt)
            return tangent_third_at(known, pt)

        monkeypatch.setattr(cons, "tangent_third_at", counting)
        got = (
            third_point_general(noisy, p, q),
            tangent_third_at(noisy, p),
            group_add(noisy, FLEX, p, q, verify_flex=False),
            group_add(noisy, FLEX, p, scale(-3, p), verify_flex=False),
        )
        assert got == expected
        assert len(calls) == 1
        with pytest.raises(HypothesisViolation):
            third_point_general(noisy, p, scale(5, p))

    def test_selections_are_in_general_position(self, group_pool):
        """Every selection the search yields is in general position with
        its anchors, also on a chord whose third point is in the pool."""
        f, pool = group_pool
        rng = random.Random(3303)
        pairs = [tuple(rng.sample(pool, 2)) for _ in range(49)]
        # a chord whose third point is in the pool: a collinear triple
        inside = None
        for p, q in itertools.combinations(pool, 2):
            try:
                r = oracle.third(f, p, q)
            except ValueError:
                continue
            if r in pool and r not in (p, q):
                inside = (p, q)
                break
        assert inside is not None
        pairs.append(inside)
        for p, q in pairs:
            candidates = [pt for pt in pool if pt not in (p, q)]
            selections = list(cons._general_position_selections([p, q], candidates, 7))
            assert selections
            for aux in selections:
                assert cons.general_position_violation((p, q, *aux)) is None

    def test_refit_walks_the_selections(self, group_pool, monkeypatch):
        """_refit fits each selection in search order, skips one whose fit
        or construction is refused, and says why when none is left."""
        f, pool = group_pool
        p, candidates = pool[0], pool[1:16]
        selections = list(cons._general_position_selections([p], candidates, 8))
        assert len(selections) > 3
        fitted, original = [], cons.fit_nine_points

        def counted(labels):
            fitted.append(labels)
            return original(labels)

        monkeypatch.setattr(cons, "fit_nine_points", counted)

        def refuse_twice(labels, params):
            assert labels == fitted[-1]
            if len(fitted) < 3:
                raise DegenerateIntermediateError("probe")
            return params.a

        assert projectively_equal(cons._refit((p,), candidates, refuse_twice), p)
        assert fitted == [(p, *aux) for aux in selections[:3]]

        def refuse(labels, params):
            raise DegenerateIntermediateError("probe")

        fitted.clear()
        with pytest.raises(cons.InsufficientPointsError, match="no admissible"):
            cons._refit((p,), candidates, refuse)
        assert len(fitted) == len(selections)
        with pytest.raises(cons.InsufficientPointsError, match="fewer than 8"):
            cons._refit((p,), candidates[:7], refuse)
        with pytest.raises(cons.InsufficientPointsError, match="fewer than 7"):
            cons._refit((p, pool[1]), candidates[1:7], refuse)

    @pytest.mark.parametrize("anchors", [1, 2])
    def test_the_search_alone_refuses_unusable_candidates(self, group_pool, anchors):
        """The search drops every candidate that cannot complete a
        general-position set: the zero triple, a copy of an anchor and a
        point on the line through two anchors.  It counts only the usable
        candidates, the extras change no selection, and no selection is
        yielded twice."""
        f, pool = group_pool
        fixed, count = pool[:anchors], 9 - anchors
        candidates = pool[anchors:18]
        extras = [Point(0, 0, 0), scale(2, fixed[0]), scale(-3, fixed[-1])]
        if anchors == 2:
            p, q = fixed
            extras.append(Point(*(u + v for u, v in zip(p.coords, q.coords))))
        mixed = [extras[0], *candidates[:3], extras[1], *candidates[3:9], *extras[2:], *candidates[9:]]
        expected = list(cons._general_position_selections(fixed, candidates, count))
        assert expected
        assert list(cons._general_position_selections(fixed, mixed, count)) == expected
        keys = {tuple(pt.coords for pt in aux) for aux in expected}
        assert len(keys) == len(expected)

        def refuse(labels, params):
            raise DegenerateIntermediateError("probe")

        with pytest.raises(cons.InsufficientPointsError, match=f"fewer than {count} usable"):
            cons._refit(fixed, [*extras, *candidates[: count - 1]], refuse)


# five points of the conic xaAbBcx = 0, built by joins and meets: a, c,
# the meet AB, the chord ab crossed with B and the chord bc crossed with A
FIVE_ON_CONIC = [parse(text) for text in ("a", "c", "AB", "ab.B", "bc.A")]


class TestConicFivePoints:
    def run_instance(self, a, b, c, A, B):
        env = Environment({"a": a, "b": b, "c": c, "A": A, "B": B})
        five = [eval_numeric(ast, env) for ast in FIVE_ON_CONIC]
        conic = eval_symbolic(parse("xaAbBcx"), env)
        assert conic.degree == 2 and not conic.is_zero
        for pt in five:
            assert not pt.is_zero and evaluate(conic, pt) == 0
        return five

    def test_example_instance(self):
        five = self.run_instance(
            Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Line(1, 1, 1), Line(1, 2, 3)
        )
        assert len(five) == 5

    def test_random_instances(self):
        from test_acceptance import _random_conic_instance

        rng = random.Random(12)
        for _ in range(10):
            self.run_instance(*_random_conic_instance(rng))


def sym_rank(f):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j, k), c in f.coeffs.items():
        idxs = [n for n, e in enumerate((i, j, k)) for _ in range(e)]
        if idxs[0] == idxs[1]:
            m[idxs[0]][idxs[0]] = c
        else:
            m[idxs[0]][idxs[1]] = c / 2
            m[idxs[1]][idxs[0]] = c / 2
    rank = 0
    for col in range(3):
        piv = next((r for r in range(rank, 3) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(3):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [vr - factor * vc for vr, vc in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestDegenerateConicChoices:
    def test_two_crossing_lines_when_b_on_A(self):
        a, b, c = Point(1, 2, 3), Point(1, -1, 4), Point(1, 5, -2)
        A = join(b, Point(2, 1, 1))
        B = Line(3, -1, 2)
        env = Environment({"a": a, "b": b, "c": c, "A": A, "B": B})
        conic = eval_symbolic(parse("xaAbBcx"), env)
        assert sym_rank(conic) == 2

    def test_double_line_when_lines_meet_at_b_and_c_on_ab(self):
        a, b = Point(1, 2, 3), Point(1, -1, 4)
        A = join(b, Point(3, 1, -1))
        B = join(b, Point(0, 2, 7))
        c = meet(join(a, b), Line(1, 1, 1))
        env = Environment({"a": a, "b": b, "c": c, "A": A, "B": B})
        conic = eval_symbolic(parse("xaAbBcx"), env)
        assert sym_rank(conic) == 1


def cross_meets(*six):
    """The three cross-meets of the hexagon that _pascal builds, as points."""
    return [Point(*m) for m in cons._pascal(*(pt.coords for pt in six))]


class TestPascal:
    @staticmethod
    def conic_points(n, seed=0):
        base = [Point(1, 1, 0), Point(1, 0, 1), Point(1, -1, 0), Point(1, 0, -1), Point(5, 3, 4)]
        conic = nullspace_fit(base, 2)
        rng = random.Random(seed)
        pts = []
        while len(pts) < n:
            probe = Point(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
            if probe.is_zero or projectively_equal(probe, base[0]):
                continue
            form = restrict_to_line(conic, base[0], probe)
            if form[0] != 0 or form[1] == 0:
                continue
            cand = canonicalize(
                Point(
                    *(
                        -form[2] * bc + form[1] * pc
                        for bc, pc in zip(base[0].coords, probe.coords)
                    )
                )
            )
            if any(projectively_equal(cand, p) for p in pts):
                continue
            assert evaluate(conic, cand) == 0
            pts.append(cand)
        return pts

    def test_six_on_conic_collinear(self):
        six = self.conic_points(6, seed=5)
        m1, m2, m3 = cross_meets(*six)
        assert bracket(m1, m2, m3) == 0

    def test_generic_six_not_collinear(self):
        rng = random.Random(31)
        found = 0
        while found < 5:
            six = [Point(*(rng.randint(-9, 9) for _ in range(3))) for _ in range(6)]
            if any(p.is_zero for p in six):
                continue
            m1, m2, m3 = cross_meets(*six)
            if m1.is_zero or m2.is_zero or m3.is_zero:
                continue
            # require the six to genuinely miss a common conic
            from grassmann.poly import _bareiss, monomials

            rows = [
                [
                    int(cp.coords[0] ** i * cp.coords[1] ** j * cp.coords[2] ** k)
                    for (i, j, k) in monomials(2)
                ]
                for cp in (canonicalize(p) for p in six)
            ]
            rank, _, _ = _bareiss(rows)
            if rank <= 5:
                continue
            assert bracket(m1, m2, m3) != 0
            found += 1

    def test_repeated_point_propagates_zero(self):
        p = Point(1, 2, 3)
        others = [Point(0, 1, 1), Point(1, 0, 1), Point(2, 1, 0), Point(1, 1, 1)]
        m1, m2, m3 = cross_meets(p, others[0], others[1], p, others[2], others[3])
        # hexagon with a repeated point: the first meet involves join(a, b1)
        # and join(a1, b) with a == a1, so some output degenerates or the
        # bracket vanishes
        assert m1.is_zero or m2.is_zero or m3.is_zero or bracket(m1, m2, m3) == 0


# ---------------------------------------------------------------------------
# the chord path's coordinate-tuple kernels against the public object API

_SCALARS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=7),
)
_TRIPLES = st.tuples(_SCALARS, _SCALARS, _SCALARS)

# nine general-position points on which the labelled fit's step K = yz
# vanishes (a special position the fit refuses)
K_VANISHES = [
    (1, 3, 6), (1, 4, -9), (1, -9, 2), (1, 0, -7), (1, -5, -10),
    (1, 7, 5), (1, -9, 3), (1, 3, 8), (1, -5, 6),
]


def reference_fit(labels, name_collinear_e_g1_h1=True):
    """The documented nine-point recipe on public join/meet/canonicalize,
    as a dict of every parameter and named step; a zero step raises with
    its name.
    Without `name_collinear_e_g1_h1`, [e,g1,h1] = 0 is not tested, and the
    recipe refuses such input at a later step."""

    def step(name, value):
        if value.is_zero:
            raise DegenerateIntermediateError(name)
        return canonicalize(value)

    a, b, c, d, e, f, g, h, i = labels
    A = step("A=de", join(d, e))
    B = step("B=ef", join(e, f))
    a1 = step("a1=af.cd", meet(join(a, f), join(c, d)))

    def pair(p, n):
        p1 = step(f"{n}1={n}aAa1.{n}c", meet(join(meet(join(p, a), A), a1), join(p, c)))
        return p1, step(f"{n}2={n}bB", meet(join(p, b), B))

    g1, g2 = pair(g, "g")
    h1, h2 = pair(h, "h")
    if name_collinear_e_g1_h1 and bracket(e, g1, h1) == 0:
        raise DegenerateIntermediateError("[e,g1,h1]")
    i1, i2 = pair(i, "i")
    C = step("C=ei1", join(e, i1))
    y = step("y=h1g1Cg2.fh1", meet(join(meet(join(h1, g1), C), g2), join(f, h1)))
    z = step("z=g1h1Ch2.fg1", meet(join(meet(join(g1, h1), C), h2), join(f, g1)))
    K = step("K=yz", join(y, z))
    k = step("k=K.i1i2", meet(K, join(i1, i2)))
    b1 = step("b1=kg2Cg1.kf", meet(join(meet(join(k, g2), C), g1), join(k, f)))
    return dict(
        a=a, a1=a1, b=b, b1=b1, c=c, k=k, A=A, B=B, C=C,
        g1=g1, g2=g2, h1=h1, h2=h2, i1=i1, i2=i2, y=y, z=z, K=K,
    )


def fit_fields(params, steps):
    fields = {n: getattr(params, n) for n in ("a", "a1", "b", "b1", "c", "k", "A", "B", "C")}
    return {**fields, **steps}


def bracket_violation(points):
    """The indices of the first collinear triple, by one bracket per triple."""
    for (i, p), (j, q), (k, r) in itertools.combinations(enumerate(points), 3):
        if bracket(p, q, r) == 0:
            return i, j, k
    return None


class TestTupleKernels:
    def test_cubic_expression_text(self):
        assert cons.CUBIC_EXPRESSION == "(xaAa_1.xbBkCb_1.xc)"

    @staticmethod
    def assert_fold_agrees(params, x):
        cubic = cons.CubicParams(
            *(Point(*t) for t in params[:6]), *(Line(*t) for t in params[6:])
        )
        x = Point(*x)
        got = evaluate_cubic(cubic, x)
        expected = eval_numeric(parse(cons.CUBIC_EXPRESSION), params_environment(cubic, x=x))
        assert got == expected
        assert type(got) is type(expected)
        return got

    @given(params=st.lists(_TRIPLES, min_size=9, max_size=9), x=_TRIPLES)
    def test_evaluate_cubic_is_the_expression_fold(self, params, x):
        self.assert_fold_agrees(params, x)

    @given(params=st.lists(_TRIPLES, min_size=9, max_size=9), zero=st.integers(0, 9))
    def test_expand_cubic_is_the_symbolic_expansion(self, params, zero):
        # any nine triples, with one of them zero unless zero is 9
        if zero < 9:
            params[zero] = (0, 0, 0)
        cubic = cons.CubicParams(
            *(Point(*t) for t in params[:6]), *(Line(*t) for t in params[6:])
        )
        expected = eval_symbolic(parse(cons.CUBIC_EXPRESSION), params_environment(cubic))
        assert expand_cubic(cubic) == expected

    @given(
        params=st.lists(_TRIPLES, min_size=9, max_size=9),
        x=_TRIPLES,
        zero=st.integers(0, 9),
    )
    def test_evaluate_cubic_with_a_zero_point(self, params, x, zero):
        # the zero triple as one parameter (slot 9 is x)
        if zero == 9:
            x = (0, 0, 0)
        else:
            params[zero] = (0, 0, 0)
        assert self.assert_fold_agrees(params, x) == 0

    @given(params=st.lists(_TRIPLES, min_size=9, max_size=9), x=_TRIPLES)
    def test_sixth_conic_value_is_the_expression_fold(self, params, x):
        cubic = cons.CubicParams(
            *(Point(*t) for t in params[:6]), *(Line(*t) for t in params[6:])
        )
        got = cons._sixth_conic_value(cubic, x)
        expected = eval_numeric(parse("xaAa_1Bcx"), params_environment(cubic, x=Point(*x)))
        assert got == expected
        assert type(got) is type(expected)

    def test_evaluate_cubic_off_the_curve(self, labels9):
        params = fit_nine_points(labels9)
        triples = [getattr(params, n).coords for n in ("a", "a1", "b", "b1", "c", "k", "A", "B", "C")]
        for x in ((1, 2, 3), (Fraction(1, 3), -4, 7), (5, 0, -1)):
            assert self.assert_fold_agrees(triples, x) != 0

    def test_evaluate_cubic_needs_a_point(self, labels9):
        params = fit_nine_points(labels9)
        for x in (Line(1, 2, 3), 5, Fraction(1, 2)):
            with pytest.raises(KindError):
                evaluate_cubic(params, x)

    def test_evaluate_cubic_needs_points_and_lines(self, labels9):
        params = fit_nine_points(labels9)
        x = Point(1, 2, 3)
        wrong_kinds = (
            ("a1", "a_1", Line(*params.a1.coords), "point"),
            ("B", "B", Point(*params.B.coords), "line"),
        )
        for name, bound, wrong, kind in wrong_kinds:
            with pytest.raises(KindError, match=f"parameter {name} must be a {kind}"):
                dataclasses.replace(params, **{name: wrong})
            with pytest.raises(KindError):
                env = params_environment(params, x=x, **{bound: wrong})
                eval_numeric(parse(cons.CUBIC_EXPRESSION), env)
        # the kinds are checked once, where the parameters are built, so no
        # construction on them meets a wrong kind
        with pytest.raises(KindError, match="parameter a1 must be a point"):
            expand_cubic(dataclasses.replace(params, a1=Line(*params.a1.coords)))

    @pytest.mark.parametrize("seed", range(12))
    def test_fit_fields_match_reference_recipe(self, seed):
        labels = seeded_labels(seed)
        scaled = NinePointLabels.from_points(
            scale(Fraction(2 * n + 1, n + 3), p) for n, p in enumerate(labels)
        )
        for case in (labels, scaled):
            try:
                expected = reference_fit(case)
            except DegenerateIntermediateError as exc:
                with pytest.raises(DegenerateIntermediateError) as got:
                    fit_nine_points_trace(case)
                assert got.value.step == exc.step
                continue
            params, steps = fit_nine_points_trace(case)
            assert list(steps) == ["g1", "g2", "h1", "h2", "i1", "i2", "y", "z", "K"]
            got = fit_fields(params, steps)
            assert got == expected
            for name, value in got.items():
                assert type(value) is type(expected[name])
                if name not in ("a", "b", "c"):  # the inputs, kept as given
                    assert all(type(c) is int for c in value.coords)

    def test_k_vanishes_names_its_step(self):
        # [e,g1,h1] = 0 on these nine, so the fit refuses by that name
        # before K = yz vanishes
        labels = NinePointLabels.from_points(Point(*t) for t in K_VANISHES)
        assert cons.general_position_violation(labels) is None
        with pytest.raises(DegenerateIntermediateError) as exc:
            fit_nine_points(labels)
        assert exc.value.step == "[e,g1,h1]"
        with pytest.raises(DegenerateIntermediateError) as ref:
            reference_fit(labels)
        assert ref.value.step == "[e,g1,h1]"
        with pytest.raises(DegenerateIntermediateError) as unnamed:
            reference_fit(labels, name_collinear_e_g1_h1=False)
        assert unnamed.value.step == "K=yz"

    def test_collinear_e_g1_h1_on_grid_draws(self):
        """Draws 1260 and 3838 of random_nine_points(Random(12345)) are in
        general position with e on the line g1h1.  The fit refuses both by
        that name; without that test the recipe refuses later, at K = yz,
        as it did before the test was added."""
        rng = random.Random(12345)
        draws = [random_nine_points(rng) for _ in range(3838)]
        for labels in (draws[1259], draws[3837]):
            assert cons.general_position_violation(labels) is None
            with pytest.raises(DegenerateIntermediateError) as exc:
                fit_nine_points(labels)
            assert exc.value.step == "[e,g1,h1]"
            with pytest.raises(DegenerateIntermediateError) as ref:
                reference_fit(labels)
            assert ref.value.step == "[e,g1,h1]"
            with pytest.raises(DegenerateIntermediateError) as unnamed:
                reference_fit(labels, name_collinear_e_g1_h1=False)
            assert unnamed.value.step == "K=yz"

    def test_chord_with_coincident_ends_names_ab(self, labels9):
        params = fit_nine_points(labels9)
        twin = dataclasses.replace(params, b=scale(3, params.a))
        with pytest.raises(DegenerateIntermediateError) as exc:
            third_point_on_chord_ab(twin)
        assert exc.value.step == "ab"

    def test_chord_point_matches_object_formula(self, labels9):
        params = fit_nine_points(labels9)
        a, b, c = params.a, params.b, params.c
        ab = join(a, b)
        l1 = join(meet(ab, params.A), params.a1)
        l2 = join(meet(join(meet(ab, params.B), params.k), params.C), params.b1)
        p = canonicalize(meet(l1, l2))
        assert third_point_on_chord_ab(params) == canonicalize(meet(join(p, c), ab))

    def test_general_position_violation_matches_brackets(self):
        rng = random.Random(404)
        found = 0
        for n in range(300):
            # small grids make collinear triples common, larger ones rare
            r = 2 + n % 3 * 14
            pts = [
                Point(rng.choice([1, Fraction(1, 2), 2]), rng.randint(-r, r), rng.randint(-r, r))
                for _ in range(9)
            ]
            expected = bracket_violation(pts)
            assert cons.general_position_violation(pts) == expected
            found += expected is not None
        assert 0 < found < 300
        # general position is asked of points only: lines, or a mix, are refused
        lines = [Line(1, 0, -1), Line(0, 1, -1), Line(1, 1, -2), Line(1, 2, 5)]
        for pts in (lines, [Point(1, 0, 0), Line(0, 1, 0), Point(0, 0, 1)]):
            with pytest.raises(KindError):
                cons.general_position_violation(pts)
