from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from grassmann.core import KindError, Line, Point, _cross, incidence
from grassmann.poly import (
    DegenerateLineError,
    HomPoly,
    RankDeficientError,
    evaluate,
    monomials,
    nullspace_fit,
    poly_cross,
    poly_dot,
    primitive_triple,
    restrict_to_line,
)

from grassmann.oracle import third

from curves import CURVES, grow_pool, weierstrass

X = tuple(HomPoly(1, {m: 1}) for m in monomials(1))


def constant(obj):
    """A point or line as a triple of forms of degree 0."""
    return tuple(HomPoly(0, {(0, 0, 0): c}) for c in obj.coords)


def test_monomial_order_degree_three():
    assert monomials(3) == (
        (3, 0, 0),
        (2, 1, 0),
        (2, 0, 1),
        (1, 2, 0),
        (1, 1, 1),
        (1, 0, 2),
        (0, 3, 0),
        (0, 2, 1),
        (0, 1, 2),
        (0, 0, 3),
    )


class TestVectorOps:
    def test_constant_cross_matches_numeric_meet(self):
        from grassmann.core import meet

        L, M = Line(1, 1, 1), Line(1, 2, 3)
        sym = poly_cross(constant(L), constant(M))
        assert tuple(evaluate(f, Point(1, 1, 1)) for f in sym) == meet(L, M).coords

    def test_cross_with_itself_is_zero(self):
        assert all(e.is_zero for e in poly_cross(X, X))

    def test_cross_variable_with_e0(self):
        # x cross (1,0,0) = (0, x2, -x1)
        res = poly_cross(X, constant(Point(1, 0, 0)))
        assert res[0].is_zero
        assert res[1] == HomPoly(1, {(0, 0, 1): 1})
        assert res[2] == HomPoly(1, {(0, 1, 0): -1})

    def test_dot_with_ones(self):
        f = poly_dot(X, constant(Point(1, 1, 1)))
        assert f == HomPoly(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})

    def test_triple_product_with_repeated_factor_vanishes(self):
        v = constant(Point(2, -1, 3))
        assert poly_dot(X, poly_cross(X, v)).is_zero

    def test_constant_dot_matches_incidence(self):
        L, p = Line(1, 2, 3), Point(0, 1, 1)
        f = poly_dot(constant(L), constant(p))
        assert f.coeffs[(0, 0, 0)] == incidence(L, p)

    def test_degree_mismatch_rejected(self):
        one = HomPoly(0, {(0, 0, 0): 1})
        for f, g in ((X[0], one), (one, X[0])):
            with pytest.raises(ValueError):
                f + g
            with pytest.raises(ValueError):
                f - g
        # a zero summand is no mismatch: the sum is the other form
        assert X[0] + HomPoly(0) == X[0] and HomPoly(0) - X[0] == -X[0]

    def test_cross_degree_and_scale_entries(self):
        u = constant(Line(1, -2, 3))
        for v in (X, poly_cross(X, u), constant(Point(0, 0, 0))):
            assert [e.degree for e in poly_cross(u, v)] == [e.degree for e in v]
            s = poly_dot(u, v)
            assert [(s * e).degree for e in v] == [s.degree + e.degree for e in v]

    def test_primitive_divides_the_triple_by_one_content(self):
        # times 3/2 the triple is coprime and integral; its first nonzero
        # coefficient, in the first entry, is then made positive.  Each entry
        # made primitive on its own would lose the ratio 9 : 0 : -2 of the x0
        # terms
        x0, x1, _ = X
        v = (x0 * -6, HomPoly(1), x0 * Fraction(4, 3) + x1 * 2)
        p = primitive_triple(v)
        assert p == (x0 * 9, HomPoly(1), x0 * -2 + x1 * -3)
        assert all(type(c) is int for e in p for c in e._terms.values())
        s = HomPoly(0, {(0, 0, 0): Fraction(-5, 7)})
        assert primitive_triple(tuple(s * e for e in v)) == p
        zero = constant(Point(0, 0, 0))
        assert primitive_triple(zero) == zero


class TestEvaluate:
    def test_monomial_vanishing(self):
        f = HomPoly(3, {(1, 1, 1): 1})
        assert evaluate(f, Point(1, 1, 0)) == 0

    def test_cube(self):
        f = HomPoly(3, {(3, 0, 0): 1})
        assert evaluate(f, Point(2, 0, 0)) == 8

    def test_partial_derivative(self):
        f = HomPoly(3, {(2, 1, 0): 6})
        assert f.partial(0) == HomPoly(2, {(1, 1, 0): 12})
        assert f.partial(2).is_zero


class TestNullspaceFit:
    def test_round_trip_on_known_cubic(self):
        f = weierstrass(0, 17)
        pool = grow_pool(f, CURVES[0][2], 12)
        g = nullspace_fit(pool[:9], 3)
        u, v = f.coefficient_vector(), g.coefficient_vector()
        pivot = next((a, b) for a, b in zip(u, v) if a or b)
        assert all(a * pivot[1] == b * pivot[0] for a, b in zip(u, v))

    def test_five_point_conic(self):
        pts = [Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Point(1, 1, 1), Point(1, 2, 3)]
        conic = nullspace_fit(pts, 2)
        assert conic.degree == 2 and not conic.is_zero
        assert all(evaluate(conic, p) == 0 for p in pts)

    def test_rank_deficient_nine_on_a_conic(self):
        # Pythagorean points of x1^2 + x2^2 = x0^2; cubics through nine of
        # them form a pencil and the fit must refuse
        triples = [(5, 3, 4), (5, 4, 3), (5, -3, 4), (5, 4, -3), (13, 5, 12),
                   (13, 12, 5), (13, -5, 12), (13, 12, -5), (17, 8, 15)]
        pts = [Point(*t) for t in triples]
        with pytest.raises(RankDeficientError) as exc:
            nullspace_fit(pts, 3)
        assert exc.value.rank < 9

    def test_fit_then_evaluate_is_zero_everywhere(self):
        pts = [Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Point(1, 1, 1), Point(1, -2, 5)]
        conic = nullspace_fit(pts, 2)
        assert all(evaluate(conic, p) == 0 for p in pts)


class TestRestrictToLine:
    def test_line_inside_curve_gives_zero_form(self):
        # x2 * (x0^2 + x1^2 + x2^2) contains the line x2 = 0
        f = HomPoly(3, {(2, 0, 1): 1, (0, 2, 1): 1, (0, 0, 3): 1})
        form = restrict_to_line(f, Point(1, 0, 0), Point(0, 1, 0))
        assert all(c == 0 for c in form)

    def test_endpoints_on_curve_kill_extreme_coefficients(self):
        f = weierstrass(0, 17)
        p, q = Point(1, -2, 3), Point(1, 2, 5)
        form = restrict_to_line(f, p, q)
        assert form[0] == 0 and form[3] == 0

    def test_third_root_back_substitution(self):
        f = weierstrass(0, 17)
        p, q = Point(1, -2, 3), Point(1, 2, 5)
        form = restrict_to_line(f, p, q)
        c1, c2 = form[1], form[2]
        y = Point(*(-c2 * a + c1 * b for a, b in zip(p.coords, q.coords)))
        assert evaluate(f, y) == 0

    def test_projectively_equal_endpoints_rejected(self):
        f = weierstrass(0, 17)
        with pytest.raises(DegenerateLineError):
            restrict_to_line(f, Point(1, 2, 3), Point(2, 4, 6))

    def test_restriction_agrees_with_direct_evaluation(self):
        f = weierstrass(-7, 10)
        p, q = Point(1, 1, 2), Point(1, 3, 4)
        form = restrict_to_line(f, p, q)
        for s, t in ((1, 0), (0, 1), (2, 3), (-1, 5)):
            direct = evaluate(f, Point(*(s * a + t * b for a, b in zip(p.coords, q.coords))))
            assert sum(c * s ** (3 - m) * t ** m for m, c in enumerate(form)) == direct


class TestExactScalars:
    """Coefficients stay as given; the accessors still return Fractions."""

    def test_accessors_return_fractions(self):
        f = HomPoly(2, {(2, 0, 0): 3, (1, 1, 0): Fraction(-1, 2)}) * HomPoly(0, {(0, 0, 0): 2})
        assert all(type(c) is Fraction for c in f.coeffs.values())
        assert all(type(c) is Fraction for c in f.coefficient_vector())
        assert f.coeffs[(2, 0, 0)] / 4 == Fraction(3, 2)

    def test_coeffs_in_monomial_order(self):
        f = HomPoly(3, {(0, 0, 3): 1, (1, 1, 1): -4, (3, 0, 0): 2, (0, 2, 1): 5})
        assert list(f.coeffs) == [(3, 0, 0), (1, 1, 1), (0, 2, 1), (0, 0, 3)]
        assert list(f.coeffs.values()) == [2, -4, 5, 1]
        g = HomPoly(1, {(0, 0, 1): 1, (1, 0, 0): 1}) * HomPoly(1, {(0, 1, 0): 1, (1, 0, 0): -1})
        assert list(g.coeffs) == [m for m in monomials(2) if m in g.coeffs]

    def test_scalar_multiplication(self):
        f = HomPoly(2, {(2, 0, 0): 3, (0, 1, 1): -2})
        doubled = HomPoly(2, {(2, 0, 0): 6, (0, 1, 1): -4})
        assert f * 2 == doubled and 2 * f == doubled
        assert type(evaluate(2 * f, Point(1, 1, 1))) is int
        zero = f * 0
        assert zero.is_zero and zero.degree == 2
        half = f * Fraction(1, 2)
        assert half.coeffs == {(2, 0, 0): Fraction(3, 2), (0, 1, 1): -1}
        assert half * 2 == f

    def test_zero_forms_of_any_degree_are_one_value(self):
        zeros = [HomPoly(2), HomPoly(3), HomPoly(1, {(1, 0, 0): 0})]
        assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
        assert len(set(zeros)) == 1

    @pytest.mark.parametrize("bad", [0.5, 0.0, 2.5, "ab", None])
    def test_inexact_coefficients_and_scalars_rejected(self, bad):
        f = HomPoly(1, {(1, 0, 0): 1})
        with pytest.raises(KindError):
            HomPoly(1, {(1, 0, 0): bad})
        with pytest.raises(KindError):
            f * bad
        with pytest.raises(KindError):
            bad * f

    def test_fraction_and_int_coefficients_equal_and_hash_equal(self):
        f = HomPoly(1, {(1, 0, 0): Fraction(4, 2)})
        g = HomPoly(1, {(1, 0, 0): 2})
        assert f == g
        assert hash(f) == hash(g)

    def test_integer_inputs_stay_integers(self):
        f = poly_dot(X, poly_cross(constant(Point(2, -1, 3)), X)) + HomPoly(
            2, {(2, 0, 0): 5}
        )
        p = Point(3, 1, -4)
        assert type(evaluate(f, p)) is int
        assert all(type(c) is int for c in restrict_to_line(f, p, Point(1, 0, 1)))
        assert type(evaluate(f.partial(0), p)) is int

    def test_evaluate_exact_beyond_float_precision(self):
        big = 2**53
        f = HomPoly(1, {(1, 0, 0): 1, (0, 1, 0): -1})
        assert float(big + 1) - float(big) == 0
        assert evaluate(f, Point(big + 1, big, 7)) == 1
        # a chord point of y^2 = x^3 + 17 with every coordinate above 2^53
        cubic = weierstrass(0, 17)
        q = Point(1, -2, 3)
        for _ in range(4):
            q = third(cubic, q, q)
        p = third(cubic, Point(1, 2, 5), q)
        assert min(abs(c) for c in p.coords) > big
        assert evaluate(cubic, p) == 0
        assert evaluate(cubic, Point(p.coords[0], p.coords[1] + 1, p.coords[2])) != 0

    def test_nullspace_fit_is_primitive_and_integral(self):
        pts = [Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Point(1, 1, 1), Point(3, -2, 5)]
        conic = nullspace_fit(pts, 2)
        assert conic == conic.primitive()
        vec = [int(c) for c in conic.coefficient_vector()]
        assert conic.coefficient_vector() == vec
        assert next(v for v in vec if v) > 0

    @given(data=st.data())
    def test_mixed_scalars_match_all_fraction_arithmetic(self, data):
        scalar = st.one_of(
            st.integers(-30, 30),
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
        )

        def form(degree):
            monos = monomials(degree)
            coeffs = data.draw(st.dictionaries(st.sampled_from(monos), scalar, max_size=len(monos)))
            return HomPoly(degree, coeffs)

        def frac(f):
            return HomPoly(f.degree, f.coeffs)

        f, g = form(1), form(2)
        h = form(2)
        assert (f * g).coeffs == (frac(f) * frac(g)).coeffs
        assert (g + h).coeffs == (frac(g) + frac(h)).coeffs
        assert (g - h).coeffs == (frac(g) - frac(h)).coeffs
        fg = f * g
        triple = st.tuples(scalar, scalar, scalar)
        p, q = Point(*data.draw(triple)), Point(*data.draw(triple))
        assume(any(_cross(p.coords, q.coords)))
        assert restrict_to_line(fg, p, q) == restrict_to_line(frac(fg), p, q)
        assert evaluate(fg, p) == evaluate(frac(f), p) * evaluate(frac(g), p)
        assert evaluate(g - h, q) == evaluate(frac(g), q) - evaluate(frac(h), q)


def _term_by_term_restriction(f, p, q):
    """f(s*p + t*q) with each monomial multiplied out one linear factor
    at a time."""
    out = [0] * (f.degree + 1)
    for mono, c in f.coeffs.items():
        term = [c]
        for e, pc, qc in zip(mono, p.coords, q.coords):
            for _ in range(e):
                term = [a * pc + b * qc for a, b in zip(term + [0], [0] + term)]
        for m, v in enumerate(term):
            out[m] += v
    return out


class TestSharedPowerTables:
    @given(data=st.data())
    def test_restriction_equals_term_by_term_expansion(self, data):
        scalar = st.one_of(
            st.integers(-10**12, 10**12),
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
        )
        degree = data.draw(st.integers(0, 4))
        monos = monomials(degree)
        f = HomPoly(degree, data.draw(st.dictionaries(st.sampled_from(monos), scalar)))
        triple = st.tuples(scalar, scalar, scalar)
        p, q = Point(*data.draw(triple)), Point(*data.draw(triple))
        assume(any(_cross(p.coords, q.coords)))
        assert restrict_to_line(f, p, q) == _term_by_term_restriction(f, p, q)

    def test_integral_sparse_cubic(self):
        f = HomPoly(3, {(0, 3, 0): 1, (3, 0, 0): 17, (1, 0, 2): -1})
        p, q = Point(1, -2, 3), Point(2, 5, -1)
        form = restrict_to_line(f, p, q)
        assert form == _term_by_term_restriction(f, p, q)
        assert all(type(c) is int for c in form)

