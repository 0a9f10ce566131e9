import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann.core import (
    KindError,
    Line,
    Point,
    ZERO_LINE,
    ZERO_POINT,
    bracket,
    canonicalize,
    incidence,
    join,
    kind_of,
    meet,
    product,
    projectively_equal,
    scale,
)
from grassmann.core import _canonical, _key

coord = st.integers(min_value=-40, max_value=40)


def nonzero_triples(cls):
    return st.tuples(coord, coord, coord).filter(lambda t: any(t)).map(lambda t: cls(*t))


points = nonzero_triples(Point)
lines = nonzero_triples(Line)


class TestMeetJoin:
    def test_axes_meet(self):
        assert projectively_equal(meet(Line(1, 0, 0), Line(0, 1, 0)), Point(0, 0, 1))

    def test_meet_of_line_with_itself_is_zero_point(self):
        L = Line(3, -2, 5)
        assert meet(L, L) == ZERO_POINT

    def test_meet_cross_product_value(self):
        assert meet(Line(1, 1, 1), Line(1, 2, 3)) == Point(1, -2, 1)

    def test_join_through_basis_points(self):
        assert projectively_equal(join(Point(1, 0, 0), Point(0, 1, 0)), Line(0, 0, 1))

    def test_join_of_point_with_itself_is_zero_line(self):
        p = Point(2, 3, -1)
        assert join(p, p) == ZERO_LINE

    def test_join_cross_product_value(self):
        assert join(Point(1, 1, 1), Point(1, 2, 3)) == Line(1, -2, 1)

    @given(p=points, q=points)
    @settings(max_examples=150)
    def test_join_contains_both_points(self, p, q):
        L = join(p, q)
        assert incidence(L, p) == 0
        assert incidence(L, q) == 0

    @given(L=lines, M=lines)
    @settings(max_examples=150)
    def test_meet_antisymmetric_up_to_class(self, L, M):
        a, b = meet(L, M), meet(M, L)
        assert projectively_equal(a, b) or (a.is_zero and b.is_zero)

    @given(p=points, q=points)
    @settings(max_examples=150)
    def test_duality_same_coordinates(self, p, q):
        as_line = join(p, q)
        as_point = meet(Line(*p.coords), Line(*q.coords))
        assert as_line.coords == as_point.coords


class TestIncidenceBracket:
    def test_incidence_examples(self):
        assert incidence(Line(0, 0, 1), Point(1, 0, 0)) == 0
        assert incidence(Line(0, 0, 1), Point(0, 0, 1)) == 1
        assert incidence(Line(1, 1, 1), Point(1, 2, -3)) == 0

    def test_incidence_is_symmetric_in_argument_order(self):
        L, p = Line(2, -1, 3), Point(1, 1, 5)
        assert incidence(L, p) == incidence(p, L)

    def test_bracket_unit_triangle_nonzero(self):
        assert bracket(Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1)) != 0

    def test_bracket_repeated_factor_zero(self):
        p, q = Point(1, 2, 3), Point(4, 5, 6)
        assert bracket(p, p, q) == 0

    def test_bracket_collinear_zero(self):
        assert bracket(Point(1, 0, 0), Point(0, 1, 0), Point(1, 1, 0)) == 0

    def test_bracket_kind_mismatch(self):
        with pytest.raises(KindError):
            bracket(Point(1, 0, 0), Line(0, 1, 0), Point(0, 0, 1))

    @given(a=points, b=points, c=points)
    @settings(max_examples=150)
    def test_bracket_permutation_classes_agree(self, a, b, c):
        base = bracket(a, b, c)
        for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            assert projectively_equal(bracket(*perm), base)

    @given(a=points, b=points, c=points, d=points)
    @settings(max_examples=200)
    def test_meet_of_joins_expansion_identity(self, a, b, c, d):
        # (ab)(cd) equals (a.b.d)c - (a.b.c)d coordinate for coordinate
        lhs = meet(join(a, b), join(c, d))
        sd = bracket(a, b, d)
        sc = bracket(a, b, c)
        rhs = tuple(sd * cc - sc * dc for cc, dc in zip(c.coords, d.coords))
        assert lhs.coords == rhs


class TestScaleProduct:
    def test_scale_zero_gives_zero_object(self):
        assert scale(0, Point(1, 2, 3)) == ZERO_POINT
        assert scale(0, Line(1, 2, 3)) == ZERO_LINE

    def test_scale_two(self):
        assert scale(2, Point(1, 1, 1)) == Point(2, 2, 2)
        assert projectively_equal(scale(2, Point(1, 1, 1)), Point(1, 1, 1))

    def test_scale_negative_fraction_keeps_class(self):
        L = Line(3, -6, 9)
        assert projectively_equal(scale(Fraction(-1, 3), L), L)

    def test_product_dispatch(self):
        p, q = Point(1, 2, 3), Point(0, 1, 1)
        L, M = Line(1, 0, 2), Line(0, 3, 1)
        assert product(p, q) == join(p, q)
        assert product(L, M) == meet(L, M)
        assert product(L, p) == incidence(L, p)
        assert product(p, L) == incidence(L, p)
        assert product(Fraction(2), p) == scale(2, p)

    @pytest.mark.parametrize("s", [2.5, 0.1, "ab", None])
    def test_inexact_scalars_are_kind_errors(self, s):
        p, L = Point(1, 2, 3), Line(1, 0, 2)
        for call in (lambda: scale(s, p), lambda: product(p, s), lambda: product(L, s)):
            with pytest.raises(KindError):
                call()

    def test_product_join_then_point_is_bracket(self):
        p, q, r = Point(1, 2, 3), Point(0, 1, 1), Point(2, 0, 5)
        assert product(join(p, q), r) == bracket(p, q, r)

    def test_scalar_scalar_is_kind_error(self):
        with pytest.raises(KindError):
            product(Fraction(1), Fraction(2))


class TestProjectiveEquality:
    def test_scaled_triple_equal(self):
        assert projectively_equal(Point(1, 2, 3), Point(2, 4, 6))

    def test_different_triples_not_equal(self):
        assert not projectively_equal(Point(1, 2, 3), Point(1, 2, 4))

    def test_zero_point_only_equal_to_itself(self):
        assert not projectively_equal(ZERO_POINT, Point(1, 0, 0))
        assert projectively_equal(ZERO_POINT, ZERO_POINT)

    def test_kind_mismatch(self):
        with pytest.raises(KindError):
            projectively_equal(Point(1, 0, 0), Line(1, 0, 0))

    def test_scalar_classes(self):
        assert projectively_equal(Fraction(3), Fraction(-7, 2))
        assert not projectively_equal(Fraction(3), Fraction(0))


class TestCanonicalize:
    def test_reduces_and_fixes_sign(self):
        assert canonicalize(Point(Fraction(-2, 3), Fraction(4, 3), Fraction(-2))) == Point(1, -2, 3)

    def test_keeps_class(self):
        p = Point(Fraction(7, 5), Fraction(-14, 10), Fraction(21))
        assert projectively_equal(canonicalize(p), p)

    def test_zero_object_passthrough(self):
        assert canonicalize(ZERO_LINE) == ZERO_LINE

    def test_kinds(self):
        assert kind_of(canonicalize(Line(2, 4, 8))) == "line"


class TestIntegerCoordinates:
    def test_int_inputs_give_int_scalars(self):
        p, q, r = Point(1, 2, 3), Point(0, 1, 1), Point(2, 0, 5)
        assert type(bracket(p, q, r)) is int
        assert type(incidence(join(p, q), r)) is int
        assert type(incidence(Line(1, 1, 1), p)) is int

    def test_int_inputs_stay_int_through_join_and_meet(self):
        x = meet(join(Point(1, 2, 3), Point(4, 5, 6)), join(Point(1, 0, 7), Point(2, 3, 1)))
        assert all(type(c) is int for c in x.coords)

    def test_fraction_and_int_coordinates_compare_equal(self):
        p, q = Point(2, 4, 6), Point(Fraction(2), 4, 6)
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_point_and_line_with_same_coordinates_differ(self):
        assert Point(1, 2, 3) != Line(1, 2, 3)
        assert not Point(1, 2, 3) == Line(1, 2, 3)
        assert len({Point(1, 2, 3), Line(1, 2, 3)}) == 2

    def test_coordinates_are_immutable(self):
        p = Point(1, 2, 3)
        with pytest.raises(AttributeError):
            p.x0 = 5
        with pytest.raises(AttributeError):
            p.coords = (5, 2, 3)
        assert p == Point(1, 2, 3)
        assert pickle.loads(pickle.dumps(p)) == p

    def test_canonicalize_mixed_input_gives_primitive_ints(self):
        c = canonicalize(Line(Fraction(-3, 2), 6, Fraction(9, 4)))
        assert c == Line(2, -8, -3)
        assert all(type(v) is int for v in c.coords)

    def test_canonicalize_returns_primitive_input_unchanged(self):
        p = Point(2, -3, 5)
        assert canonicalize(p) is p
        assert canonicalize(Point(-2, 3, -5)) == p
        assert canonicalize(Point(4, -6, 10)) == p

    def test_int_scalar_is_a_scalar(self):
        assert kind_of(3) == "scalar"
        assert product(2, Point(1, 1, 1)) == Point(2, 2, 2)
        assert canonicalize(5) == 5


big = st.integers(min_value=-(10**30), max_value=10**30)
fraction = st.fractions(max_denominator=10**8).map(lambda v: v * 10**6)


class TestKey:
    """The canonical key kept on each point and line."""

    @given(st.tuples(big, big, big).filter(any), st.sampled_from([Point, Line]))
    def test_int_key_is_the_canonical_triple(self, t, cls):
        key = _key(cls(*t))
        assert key == _canonical(t)
        assert gcd(*key) == 1 and next(v for v in key if v) > 0
        assert projectively_equal(cls(*key), cls(*t))

    @given(st.tuples(fraction, fraction, big).filter(any))
    def test_fraction_key_is_the_canonical_triple(self, t):
        assert _key(Point(*t)) == _canonical(t)

    def test_zero_key_is_the_zero_triple(self):
        z = Point(0, Fraction(0), 0)
        assert _key(z) is z.coords
        assert _key(ZERO_LINE) is ZERO_LINE.coords

    def test_key_is_kept(self):
        p = Point(4, -6, 10)
        key = _key(p)
        assert _key(p) is key
        assert p._key is key
        with pytest.raises(AttributeError):
            p._key = (1, 2, 3)
        assert _key(p) is key
        assert key == (2, -3, 5)

    def test_pickled_point_gets_the_same_key(self):
        p = Point(Fraction(-3, 2), 6, 9)
        _key(p)
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert _key(q) == _key(p)

    @given(points)
    def test_canonicalize_is_idempotent(self, p):
        c = canonicalize(p)
        assert canonicalize(c) is c
        assert _key(c) is c.coords
        assert _key(c) == _key(p)
