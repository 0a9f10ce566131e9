import random
from fractions import Fraction
from pathlib import Path

import pytest

from grassmann.core import Line, Point, incidence, join, projectively_equal
from grassmann.oracle import (
    LineContainedError,
    SingularPointError,
    ZeroPolynomialError,
    cubic_membership,
    gradient_tangent,
    hessian_flex_oracle,
    second_point,
    tangent_third,
    third,
)
from grassmann.poly import DegenerateLineError, HomPoly, evaluate, monomials

from curves import CURVES, weierstrass, FLEX, grow_pool

FERMAT = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})

# x0^2 x2 = x1^2 (x0 + x2): nodal, singular at [0:0:1]
NODAL = HomPoly(3, {(2, 0, 1): 1, (1, 2, 0): -1, (0, 2, 1): -1})
NODE = Point(0, 0, 1)


def nodal_point(t: Fraction) -> Point:
    # chord parameterization through the node
    return Point(1 - t * t, t * (1 - t * t), t * t)


class TestMembership:
    def test_fitted_points_members(self):
        f = weierstrass(0, 17)
        assert cubic_membership(f, Point(1, -2, 3))

    def test_off_curve_point(self):
        f = weierstrass(0, 17)
        assert not cubic_membership(f, Point(1, -2, 4))

    def test_zero_polynomial_error(self):
        with pytest.raises(ZeroPolynomialError):
            cubic_membership(HomPoly.zero(3), Point(1, 0, 0))

    def test_zero_point_refused(self):
        # every form vanishes at the zero triple, which is no point
        with pytest.raises(ValueError, match="zero triple is no point"):
            cubic_membership(weierstrass(0, 17), Point(0, 0, 0))


class TestGradientTangent:
    def test_node_gives_zero_line(self):
        assert evaluate(NODAL, NODE) == 0
        assert gradient_tangent(NODAL, NODE).is_zero

    def test_smooth_point_line_through_point(self):
        f = weierstrass(0, 17)
        p = Point(1, 2, 5)
        T = gradient_tangent(f, p)
        assert not T.is_zero
        # Euler relation: the gradient line passes through the point itself
        assert sum(tc * pc for tc, pc in zip(T.coords, p.coords)) == 0

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            gradient_tangent(weierstrass(0, 17), Point(1, 0, 0))

    def test_euler_identity_random_cubics(self):
        rng = random.Random(77)
        for _ in range(60):
            coeffs = {m: Fraction(rng.randint(-9, 9)) for m in monomials(3)}
            f = HomPoly(3, coeffs)
            p = Point(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            lhs = sum(pc * evaluate(f.partial(i), p) for i, pc in enumerate(p.coords))
            assert lhs == 3 * evaluate(f, p)


class TestRootMultiplicity:
    """The contact order of the line pq at a point of it, as
    ``tangent_third(f, join(p, q), at)[0]``."""

    def test_chord_endpoint_at_least_one(self):
        f = weierstrass(0, 17)
        p, q = Point(1, -2, 3), Point(1, 2, 5)
        assert tangent_third(f, join(p, q), p)[0] >= 1
        assert tangent_third(f, join(p, q), q)[0] >= 1

    def test_tangent_double_contact(self):
        f = weierstrass(0, 17)
        p = Point(1, -1, 4)
        T = gradient_tangent(f, p)
        from grassmann.core import meet

        q = next(
            pt
            for pt in (meet(T, Line(1, 0, 0)), meet(T, Line(0, 1, 0)), meet(T, Line(0, 0, 1)))
            if not pt.is_zero and not projectively_equal(pt, p)
        )
        assert tangent_third(f, join(p, q), p)[0] == 2

    def test_flex_triple_contact(self):
        # tangent at the Fermat flex (1, -1, 0) is x0 + x1 = 0
        p = Point(1, -1, 0)
        assert evaluate(FERMAT, p) == 0
        T = gradient_tangent(FERMAT, p)
        q = Point(0, 0, 1)
        assert sum(tc * qc for tc, qc in zip(T.coords, q.coords)) == 0
        assert tangent_third(FERMAT, join(p, q), p)[0] == 3

    def test_line_contained_error(self):
        f = HomPoly(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1})  # x2 * (...)
        with pytest.raises(LineContainedError):
            tangent_third(f, join(Point(1, 0, 0), Point(0, 1, 0)), Point(1, 0, 0))

    def test_at_must_be_endpoint(self):
        """A point off the line is refused, not answered for another line."""
        f = weierstrass(0, 17)
        with pytest.raises(ValueError, match="does not lie on the line"):
            tangent_third(f, join(Point(1, -2, 3), Point(1, 2, 5)), Point(1, 4, 9))
        # (1, 2, 5) is on the curve but not on the tangent at (1, -1, 4)
        T = gradient_tangent(f, Point(1, -1, 4))
        with pytest.raises(ValueError, match="does not lie on the line"):
            tangent_third(f, T, Point(1, 2, 5))


class TestSecondPoint:
    @pytest.mark.parametrize("coords", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, -3, 5)])
    def test_another_point_of_the_line(self, coords):
        L = Line(*coords)
        first = second_point(L, Point(1, 1, 1))
        q = second_point(L, first)
        assert incidence(L, first) == 0 and incidence(L, q) == 0
        assert not projectively_equal(q, first)

    def test_zero_line_refused(self):
        with pytest.raises(DegenerateLineError):
            second_point(Line(0, 0, 0), Point(1, 0, 0))


class TestChordThird:
    """The chord branch of ``third``: p and q distinct."""

    def test_known_third_point(self):
        # y = x/2 + 4 meets y^2 = x^3 + 17 at x = -2, 2 and 1/4
        f = weierstrass(0, 17)
        assert projectively_equal(third(f, Point(1, -2, 3), Point(1, 2, 5)), Point(8, 2, 33))

    def test_tangent_chord_gives_the_endpoint(self):
        f = weierstrass(0, 17)
        p = Point(1, -1, 4)
        _, t3 = tangent_third(f, gradient_tangent(f, p), p)
        assert projectively_equal(third(f, p, t3), p)
        assert projectively_equal(third(f, t3, p), p)

    def test_line_on_curve(self):
        f = HomPoly(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1})  # x2 * (...)
        with pytest.raises(LineContainedError):
            third(f, Point(1, 0, 0), Point(0, 1, 0))

    def test_endpoint_off_curve(self):
        f = weierstrass(0, 17)
        with pytest.raises(ValueError, match="chord endpoint does not lie on the curve"):
            third(f, Point(1, -2, 3), Point(1, 2, 6))


class TestTangentThird:
    def test_generic_point_double_contact(self):
        f = weierstrass(0, 17)
        p = Point(1, -1, 4)
        T = gradient_tangent(f, p)
        m, w = tangent_third(f, T, p)
        assert m == 2
        assert evaluate(f, w) == 0 and incidence(T, w) == 0
        assert not projectively_equal(w, p)

    @pytest.mark.parametrize(
        "f, flex",
        [(FERMAT, Point(1, -1, 0)), (weierstrass(0, 17), FLEX)],
        ids=["fermat", "weierstrass"],
    )
    def test_flex_triple_contact_gives_the_point(self, f, flex):
        m, w = tangent_third(f, gradient_tangent(f, flex), flex)
        assert m == 3
        assert projectively_equal(w, flex)

    def test_secant_has_no_third_point(self):
        f = weierstrass(0, 17)
        p, q = Point(1, -2, 3), Point(1, 2, 5)
        assert tangent_third(f, join(p, q), p) == (1, None)

    def test_line_on_curve(self):
        f = HomPoly(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1})  # x2 * (...)
        with pytest.raises(LineContainedError):
            tangent_third(f, Line(0, 0, 1), Point(1, 0, 0))


class TestThird:
    def test_distinct_points_give_the_chord_third_point(self):
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 12)
        for p in pool:
            for q in pool:
                if p != q:
                    r = third(f, p, q)
                    assert evaluate(f, r) == 0 and incidence(join(p, q), r) == 0
                    assert third(f, p, r) == q

    def test_equal_points_give_the_tangent_third_point(self):
        f = weierstrass(0, 17)
        p = Point(1, -1, 4)
        _, w = tangent_third(f, gradient_tangent(f, p), p)
        assert not projectively_equal(w, p)
        # p = q is projective equality, not equality of coordinates
        for q in (p, Point(-3, 3, -12), Point(Fraction(1, 2), Fraction(-1, 2), 2)):
            assert third(f, p, q) == w

    @pytest.mark.parametrize(
        "f, flex",
        [(FERMAT, Point(1, -1, 0)), (weierstrass(0, 17), FLEX)],
        ids=["fermat", "weierstrass"],
    )
    def test_a_flex_is_its_own_third_point(self, f, flex):
        assert projectively_equal(third(f, flex, flex), flex)

    def test_a_singular_point_has_no_tangent_third_point(self):
        with pytest.raises(SingularPointError):
            third(NODAL, NODE, NODE)
        # a chord through the node meets the curve there twice
        p = nodal_point(Fraction(2))
        assert projectively_equal(third(NODAL, NODE, p), NODE)

    def test_a_line_on_the_curve_has_no_third_point(self):
        f = HomPoly(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1})  # x2 * (...)
        with pytest.raises(LineContainedError):
            third(f, Point(1, 0, 0), Point(0, 1, 0))
        # x2 = 0 is also the tangent at (1, 0, 0): the tangent branch
        with pytest.raises(LineContainedError):
            third(f, Point(1, 0, 0), Point(1, 0, 0))


class TestHessianFlex:
    def test_fermat_rational_flexes(self):
        for p in (Point(1, -1, 0), Point(1, 0, -1), Point(0, 1, -1)):
            assert hessian_flex_oracle(FERMAT, p)

    def test_generic_smooth_point_not_flex(self):
        f = weierstrass(0, 17)
        assert not hessian_flex_oracle(f, Point(1, -2, 3))

    def test_weierstrass_point_at_infinity_is_flex(self):
        for a4, a6, _seeds in CURVES:
            assert hessian_flex_oracle(weierstrass(a4, a6), FLEX)

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError):
            hessian_flex_oracle(NODAL, NODE)


def test_oracle_module_does_not_import_constructions():
    import ast

    source = Path(__file__).parent.parent.joinpath("src", "grassmann", "oracle.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert not any("constructions" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "constructions" not in (node.module or "")
            assert not any("constructions" in alias.name for alias in node.names)


def test_nodal_parameterization_is_on_curve():
    for t in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-4)):
        assert evaluate(NODAL, nodal_point(t)) == 0
