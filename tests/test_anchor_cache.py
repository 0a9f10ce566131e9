"""The anchored chord and the anchor cache.

A fit with p in slot a gives the third point of the line through p and any
curve point x without a refit (constructions._anchored_third), or refuses
with a typed error at a zero step.  group_add keeps such fits per anchor,
one record each (constructions._AnchorFit), in a bounded module-level
cache that group_add's chords fill and read and tangent_third_at reads.
A chord that no cached fit serves caches the first fit at its first
endpoint that serves it; only a pool that leaves no such fit falls back
on third_point_general, the plain refit.  group_add dedupes its known
points once into a dict from canonical key to point
(constructions._known_pool), which its chords (constructions._chord) read;
the public functions take the known points as a plain iterable.  The
anchored chord's membership tests, admissions and refusals, are kept in
one bounded least-recently-used memo keyed by the fit's primitive form
and the point (constructions._on_cubic, a functools.lru_cache).  The
conftest fixture empties the cache and the memo before every test.
"""

import functools
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann import constructions as cons
from grassmann import core, oracle
from grassmann.constructions import (
    ConstructionError,
    CubicParams,
    DegenerateIntermediateError,
    NinePointLabels,
    _on_cubic,
    evaluate_cubic,
    expand_cubic,
    general_position_violation,
    group_add,
    tangent_third_at,
    third_point_general,
)
from grassmann.core import Line, Point, _canonical, _cross, _dot, join, meet
from grassmann.expr import Environment, eval_symbolic, parse
from grassmann.generate import random_scene
from grassmann.poly import HomPoly, evaluate, monomials, nullspace_fit, poly_cross, poly_dot

from curves import CURVES, FLEX, grow_pool, weierstrass
from exprgen import params_environment

# fit_nine_points calls of criterion_09_sums(pool, 9009, 10) before the
# anchor cache: one refit per chord, and another for each refused one
FITS_WITHOUT_CACHE = 289


@pytest.fixture(scope="module")
def group_pool():
    """The 40-point pool of the criterion-09 group-law test."""
    f = weierstrass(0, 17)
    return f, grow_pool(f, CURVES[0][2], 40)


@pytest.fixture(scope="module")
def tall_pool(group_pool):
    """The multiples 12P..21P of the first two pool points (hundreds of
    bits)."""
    f, pool = group_pool
    tall = [pt for base in pool[:2] for pt in multiples(f, base, range(12, 22))]
    assert max(abs(c).bit_length() for pt in tall for c in pt.coords) > 200
    return tall


def criterion_09_sums(pool, seed, rounds, cold=False):
    """The sums of the criterion-09 mix, 14 group_add calls a round: five
    commutativity pairs on the pool, p + q and q + r, then (p + q) + r with
    p + q appended to the pool and p + (q + r) with q + r appended.  With
    `cold` the anchor cache is emptied before every call."""
    rng = random.Random(seed)
    sums = []

    def add(known, p, q):
        if cold:
            cons._clear_anchor_cache()
        sums.append(group_add(known, FLEX, p, q, verify_flex=False))
        return sums[-1]

    for _ in range(rounds):
        for _ in range(5):
            p, q = rng.sample(pool, 2)
            add(pool, p, q)
            add(pool, q, p)
        p, q, r = rng.sample(pool, 3)
        pq = add(pool, p, q)
        qr = add(pool, q, r)
        add(pool + [pq], pq, r)
        add(pool + [qr], p, qr)
    return sums


def first_anchor_fit(pool, p, candidates=None):
    """The record of the first general-position selection at p whose fit
    _anchor_fit admits: the fit group_add's fill at p caches when its
    anchored chord serves the fill's chord."""
    if candidates is None:
        candidates = [pt for pt in pool if pt != p]
    return cons._refit((p,), candidates, cons._anchor_fit)


def test_every_cached_fit_passes_through_its_labels(group_pool):
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 10)
    assert len(cons._ANCHOR_CACHE) > 20
    for key, fits in cons._ANCHOR_CACHE.items():
        assert fits
        for fit in fits:
            labels, params = fit.labels, fit.params
            assert len(labels) == 9
            assert fit.others == frozenset(labels[1:])
            assert labels[0] == key == _canonical(params.a.coords)
            assert (labels[1], labels[2]) == (params.b.coords, params.c.coords)
            points = [Point(*label) for label in labels]
            assert general_position_violation(points) is None
            assert all(evaluate_cubic(params, pt) == 0 for pt in points)
            # the admission rule (the chain ybBkCb1 moves, no fit-only line
            # is zero, lw is not lv), and what every fit gives the anchored
            # chord's proof: b off B, a and a1 off A
            a, a1, b, b1, c, k = (
                getattr(params, n).coords for n in ("a", "a1", "b", "b1", "c", "k")
            )
            A, B, C = params.A.coords, params.B.coords, params.C.coords
            assert all(_dot(pt, B) != 0 for pt in (b, k))
            assert _dot(k, C) != 0 and _dot(b1, C) != 0
            assert _dot(a, A) != 0 and _dot(a1, A) != 0
            assert all(any(line) for line in (fit.lw, fit.lv, fit.cb1, fit.cd))
            assert any(_cross(fit.lw, fit.lv))
            # the closed form's weights: lw x lv and cd x cb1 are the
            # integer multiples g*beta of b and g*gamma of c, one g for
            # both, and beta and gamma are coprime
            assert fit.beta != 0 and fit.gamma != 0
            assert math.gcd(fit.beta, fit.gamma) == 1
            lw_lv, cd_cb1 = _cross(fit.lw, fit.lv), _cross(fit.cd, fit.cb1)
            g = next(t // u for t, u in zip(lw_lv, b) if u) // fit.beta
            assert lw_lv == tuple(g * fit.beta * u for u in b)
            assert cd_cb1 == tuple(g * fit.gamma * u for u in c)
            # the bracket lines, unreduced
            p = labels[0]
            assert (fit.bp, fit.pc, fit.cb) == (_cross(b, p), _cross(p, c), _cross(c, b))
            # cd is the line a1c, and on lw and lv the chain is cb1 and a1b1
            assert fit.cd == _canonical(_cross(c, labels[3]))
            assert not any(_cross(fit.cd, _cross(a1, c)))
            for line, image in ((fit.lw, fit.cb1), (fit.lv, _cross(a1, b1))):
                assert _dot(line, b) == 0
                y = _cross(line, (1, 2, 5))
                chain = cons._chain(y, b, B, k, C, b1)
                assert any(chain) and not any(_cross(chain, image))


def test_anchored_chord_equals_the_refit_on_every_pool_pair(group_pool):
    """All 1560 ordered pairs (p, x): the anchored chord on one fit at p,
    made from the whole pool so that x can be any label, either refuses
    with a typed error or gives the refit's point.  The 80 pairs with x in
    slots b and c all refuse with a zero step, by structure (see
    constructions._FITS_PER_ANCHOR): both make [c,b,x] zero.  Chords to
    d, where phi has rank one, are served.  Fewer than 60 of the others
    refuse.  group_add's chord path gives the refit's point on every
    pair."""
    f, pool = group_pool
    pairs = list(itertools.permutations(pool, 2))
    assert len(pairs) == 1560
    refit = {(p, x): third_point_general(pool, p, x) for p, x in pairs}
    assert not cons._ANCHOR_CACHE
    fits = {p: first_anchor_fit(pool, p) for p in pool}
    served, refused = {}, 0
    for p, x in pairs:
        labels = fits[p].labels
        x_key = _canonical(x.coords)
        L = cons._cross(labels[0], x_key)
        if x_key in labels[1:3]:
            with pytest.raises(DegenerateIntermediateError):
                cons._anchored_third(fits[p], x)
            continue
        if x_key == labels[3]:
            case = "x = d"
        elif x_key in labels[4:]:
            case = "x among e..i"
        elif any(_dot(L, key) == 0 for key in labels[1:]):
            case = "label on L"
        else:
            case = "fixed point"
        try:
            z = cons._anchored_third(fits[p], x)
        except ConstructionError:
            refused += 1
            continue
        assert z == refit[p, x], (p, x, case)
        served[case] = served.get(case, 0) + 1
    assert set(served) == {"x = d", "x among e..i", "label on L", "fixed point"}
    assert sum(served.values()) + refused == 1560 - 2 * len(pool)
    assert refused < 60, served
    pool_dict = cons._known_pool(pool)
    for p, x in pairs:
        assert cons._chord(pool_dict, p, x) == refit[p, x]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_anchored_chord_is_a_verified_point_or_a_typed_error(group_pool, data):
    f, pool = group_pool
    p = data.draw(st.sampled_from(pool), label="p")
    on_curve = data.draw(st.booleans(), label="x on the curve")
    if on_curve:
        x = data.draw(st.sampled_from([pt for pt in pool if pt != p]), label="x")
    else:
        x = Point(1, data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9)))
        if evaluate(f, x) == 0:
            return
    order = [pt for pt in pool if pt != p]
    random.Random(data.draw(st.integers(0, 2**32), label="order seed")).shuffle(order)
    try:
        fit = first_anchor_fit(pool, p, order)
    except cons.InsufficientPointsError:
        return
    try:
        z = cons._anchored_third(fit, x)
    except ConstructionError:
        return
    assert on_curve
    assert z.coords == _canonical(oracle.third(f, p, x).coords)


def test_tangent_chords_are_answered_without_a_refit(group_pool):
    """The ordered pool pairs (p, x) whose third point is p or x: the
    chord is tangent at that endpoint.  The anchored chord on the first
    fit at p serves some of them, each with the refit's point, and
    group_add's chord path on a fresh pool gives the refit's point on
    all of them."""
    f, pool = group_pool
    refit = {
        (p, x): third_point_general(pool, p, x) for p, x in itertools.permutations(pool, 2)
    }
    tangent = [(p, x) for (p, x), z in refit.items() if z in (p, x)]
    assert len(tangent) == 20
    assert not cons._ANCHOR_CACHE
    served = 0
    for p, x in tangent:
        try:
            z = cons._anchored_third(first_anchor_fit(pool, p), x)
        except ConstructionError:
            continue
        assert z == refit[p, x], (p, x)
        served += 1
    assert served > 0
    pool_dict = cons._known_pool(pool)
    assert [cons._chord(pool_dict, p, x) for p, x in tangent] == [refit[t] for t in tangent]


def test_refusals_at_the_O_prime_step_are_degenerate_choices(group_pool):
    """The anchored chord's refusals where the chain of joins and meets
    that its closed form replaces is zero at step O'=phi(w)U.phi(v)V, one
    pool pair per case of _anchored_third's list of degenerate choices
    seen on the group-law workload: x on the fit's line lw (x = w), and x
    on its line lv (x = v).  There U or V is x, and phi(w) or phi(v), as
    the chain samples it and as the chain ybBkCb1 gives it, is x too, so
    a line of O' is zero, and so is the closed form's z.  Each is a typed
    refusal at step z, and group_add's chord path still gives the
    oracle's third point."""
    f, pool = group_pool

    def phi(fit, L, y):
        """phi(y) = (ybBkCb1.l1)c.L with l1 = (L.A)a1, from the chain."""
        par = fit.params
        l1 = _cross(_cross(L, par.A.coords), par.a1.coords)
        chain = cons._chain(y, *(getattr(par, n).coords for n in ("b", "B", "k", "C", "b1")))
        return _cross(_cross(_cross(chain, l1), par.c.coords), L)

    pool_dict = cons._known_pool(pool)
    for p, x, case in ((pool[0], pool[19], "x = w"), (pool[2], pool[7], "x = v")):
        fit = first_anchor_fit(pool, p)
        x_key = _canonical(x.coords)
        assert x_key not in fit.labels
        with pytest.raises(DegenerateIntermediateError) as refusal:
            cons._anchored_third(fit, x)
        assert refusal.value.step == "z", case
        L = _cross(fit.labels[0], x_key)
        line, sampled = (fit.lw, fit.cb1) if case == "x = w" else (fit.lv, fit.cd)
        assert (_dot(fit.lw, x_key) == 0) == (case == "x = w")
        assert (_dot(fit.lv, x_key) == 0) == (case == "x = v")
        for image in (_cross(sampled, L), phi(fit, L, _cross(L, line))):
            assert any(image) and not any(_cross(image, x_key))
        assert cons._chord(pool_dict, p, x) == oracle.third(f, p, x)


@pytest.mark.parametrize("p, x, zero", [(0, 19, "s and t"), (0, 8, "s")])
def test_chords_with_a_zero_weight(group_pool, p, x, zero):
    """The weights s = beta(cb1.x)[b,p,x] and t = gamma[p,c,x](lw.x) of
    the closed form, which _anchored_third divides by gcd(s, t): with
    cb1.x = lw.x = 0 both are zero, gcd(s, t) is zero, and the chord still
    refuses at step z; with cb1.x = 0 alone s is zero, and the chord is
    served, at the plain refit's point.  (On the pool, lw.x = 0 comes
    only with cb1.x = 0 or a label on L.)"""
    f, pool = group_pool
    p, x = pool[p], pool[x]
    fit = first_anchor_fit(pool, p)
    x_key = _canonical(x.coords)
    assert x_key not in fit.labels
    L = _cross(fit.labels[0], x_key)
    assert all(_dot(L, key) != 0 for key in fit.labels[1:])
    s_zero, t_zero = _dot(fit.cb1, x_key) == 0, _dot(fit.lw, x_key) == 0
    assert (s_zero, t_zero) == ("s" in zero, "t" in zero)
    if zero == "s and t":
        with pytest.raises(DegenerateIntermediateError) as refusal:
            cons._anchored_third(fit, x)
        assert refusal.value.step == "z"
    else:
        z = cons._anchored_third(fit, x)
        assert z == third_point_general(pool, p, x) == oracle.third(f, p, x)


def anchored_chords_against_the_oracle(points):
    """One fit per anchor (the first that _anchor_fit admits) and every
    ordered pair (p, x) of `points`: each chord that the anchored chord
    serves is oracle.third on the nullspace_fit cubic through the first
    nine points, and each refusal is a ConstructionError.  Returns the
    counts of served and refused chords."""
    f = nullspace_fit(points[:9], 3)
    served = refused = 0
    for p in points:
        fit = first_anchor_fit(points, p)
        for x in points:
            if x is p:
                continue
            try:
                z = cons._anchored_third(fit, x)
            except ConstructionError:
                refused += 1
                continue
            assert core.projectively_equal(z, oracle.third(f, p, x)), (p, x)
            served += 1
    return served, refused


def test_anchored_chords_on_random_scenes_match_the_oracle():
    """The nine labels and eight chord points of 40 random grid scenes:
    272 ordered pairs a scene.  Each of the 17 fits of a scene refuses its
    labels b and c by structure, and fewer than 200 other chords refuse
    in all."""
    served = refused = 0
    for seed in range(40):
        points = list(random_scene(seed, 8).points.values())
        assert len(points) == 17
        s, r = anchored_chords_against_the_oracle(points)
        served, refused = served + s, refused + r
    assert served + refused == 40 * 17 * 16
    assert 40 * 17 * 2 <= refused < 40 * 17 * 2 + 200


def test_anchored_chords_on_a_tall_pool_match_the_oracle(tall_pool):
    """The multiples 12P..21P of two pool points (hundreds of bits): each
    of the 20 fits refuses its labels b and c, and fewer than 30 other
    chords refuse."""
    served, refused = anchored_chords_against_the_oracle(tall_pool)
    assert served + refused == 20 * 19
    assert 20 * 2 <= refused < 20 * 2 + 30


def chain_third(fit, x):
    """The anchored chord as the chain of joins and meets that
    _anchored_third's closed form replaces: after the same endpoint and
    label tests, with O = b, the steps L = px, M = xc, U = lw.M,
    V = lv.M, phi(w) = cb1.L, phi(v) = cd.L, O' = phi(w)U.phi(v)V and
    z = OO'.L, each reduced, and the same checks on z."""
    labels = fit.labels
    p, b, c = labels[:3]
    x = _canonical(x.coords)
    step = cons._tuple_step
    L = step("L=px", _cross(p, x))
    if not _on_cubic(fit.terms, x):
        raise ConstructionError("anchored chord endpoint is off the fitted cubic")
    for z in labels[1:]:
        if z != x and _dot(L, z) == 0:
            if _on_cubic(fit.terms, z):
                return Point(*z)
            raise ConstructionError("label on the chord is off the fitted cubic")
    M = step("M=xc", _cross(x, c))
    U = step("U=lw.M", _cross(fit.lw, M))
    V = step("V=lv.M", _cross(fit.lv, M))
    phi_w = step("phi(w)=cb1.L", _cross(fit.cb1, L))
    phi_v = step("phi(v)=cd.L", _cross(fit.cd, L))
    O2 = step("O'=phi(w)U.phi(v)V", _cross(_cross(phi_w, U), _cross(phi_v, V)))
    z = step("z=OO'.L", _cross(_cross(b, O2), L))
    if _dot(L, z) == 0 and _on_cubic(fit.terms, z):
        return Point(*z)
    raise ConstructionError("anchored chord point is off the fitted cubic")


def closed_form_against_the_chain(fits, points):
    """_anchored_third and chain_third on every fit and every point x:
    the same point, or refusals of the same type, where the closed form
    refuses only at L=px, [c,b,x] and z.  Returns the counts of served
    chords and of refusals by step."""
    served, refused = 0, {}
    for fit in fits:
        for x in points:
            try:
                want = chain_third(fit, x).coords
            except ConstructionError as exc:
                want = type(exc)
            try:
                got = cons._anchored_third(fit, x).coords
            except ConstructionError as exc:
                assert type(exc) is want, (fit.labels[0], x)
                step = getattr(exc, "step", "checks")
                refused[step] = refused.get(step, 0) + 1
                continue
            assert got == want, (fit.labels[0], x)
            served += 1
    assert set(refused) <= {"L=px", "[c,b,x]", "z", "checks"}
    return served, refused


def test_the_closed_form_is_the_chain_of_joins_and_meets(group_pool, tall_pool):
    """Every fit that seeded criterion-09 sums cache on the 40-point pool
    with every pool point, and the first fit at each of the multiples
    12P..21P with every multiple: the closed form gives the chain's point
    or refuses where the chain does.  Each fit refuses x = p at L=px (a
    sum appended to the pool can be an anchor) and its labels b and c at
    [c,b,x]."""
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 10)
    fits = [fit for fits in cons._ANCHOR_CACHE.values() for fit in fits]
    assert len(fits) > 20
    tall_fits = [first_anchor_fit(tall_pool, p) for p in tall_pool]
    for fits, points in ((fits, pool), (tall_fits, tall_pool)):
        served, refused = closed_form_against_the_chain(fits, points)
        assert served > len(fits) * (len(points) - 5), refused
        keys = {_canonical(pt.coords) for pt in points}
        assert refused["L=px"] == sum(fit.labels[0] in keys for fit in fits)
        assert refused["[c,b,x]"] >= 2 * len(fits)


# _anchored_third's chain of joins and meets with O = b, as one expression:
# Q_1.px and Q_2.px are phi(w) and phi(v), P_1.xc and P_2.xc are U and V
CHORD_CHAIN = parse("b((Q_1.px)(P_1.xc).(Q_2.px)(P_2.xc)).px")
CHORD_LINES = (("Q_1", "cb1"), ("Q_2", "cd"), ("P_1", "lw"), ("P_2", "lv"))
X = tuple(HomPoly(1, {m: 1}) for m in monomials(1))


def constant(obj):
    """A point or line as a triple of forms of degree 0."""
    return tuple(HomPoly(0, {(0, 0, 0): c}) for c in obj.coords)


def assert_closed_form_is_the_chain_in_x(fit):
    """The chain CHORD_CHAIN with Q_1 = cb1, Q_2 = cd, P_1 = lw and P_2 = lv,
    expanded in a free point x, is g[x,c,b][p,x,c] times the closed form
    z(x) = beta(cb1.x)(bp.x)(cd x L) - gamma(pc.x)(lw.x)(lv x L), L = p x x,
    built from the record's fields, for one rational g, computed here.
    Returns g."""
    p, b, c = (Point(*key) for key in fit.labels[:3])
    env = Environment(
        {"p": p, "b": b, "c": c, **{n: Line(*getattr(fit, f)) for n, f in CHORD_LINES}}
    )
    chain = eval_symbolic(CHORD_CHAIN, env)
    assert [entry.degree for entry in chain] == [5, 5, 5]

    def dot(t):
        return poly_dot(constant(Line(*t)), X)

    def cross_L(t):
        return poly_cross(constant(Line(*t)), poly_cross(constant(p), X))

    s = dot(fit.cb1) * dot(fit.bp) * fit.beta
    t = dot(fit.pc) * dot(fit.lw) * fit.gamma
    z = [u * s - v * t for u, v in zip(cross_L(fit.cd), cross_L(fit.lv))]
    # [x,c,b] = cb.x and [p,x,c] = -pc.x
    want = [dot(fit.cb) * -dot(fit.pc) * entry for entry in z]
    # g from one nonzero coefficient; every other coefficient must agree
    i = next(i for i, entry in enumerate(want) if not entry.is_zero)
    mono, w = next(iter(want[i].coeffs.items()))
    g = chain[i].coeffs.get(mono, 0) / w
    assert g != 0
    assert chain == tuple(entry * g for entry in want)
    return g


def test_the_closed_form_is_the_chain_as_forms_in_x(group_pool, tall_pool):
    """_anchored_third's closed form times [x,c,b][p,x,c] is the chain of
    joins and meets up to one factor g per fit, as triples of quintic forms
    in x, so the docstring's expansion holds at every x and not only at
    curve points: on every fit that one round of seeded criterion-09 sums
    caches on the 40-point pool, and on the first fit at a multiple 12P."""
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 1)
    fits = [fit for fits in cons._ANCHOR_CACHE.values() for fit in fits]
    assert len(fits) >= 5
    fits.append(first_anchor_fit(tall_pool, tall_pool[0]))
    # g differs between fits, so it is computed, not assumed
    assert len({assert_closed_form_is_the_chain_in_x(fit) for fit in fits}) > 1


def test_cold_and_warm_cache_give_the_same_sums(group_pool):
    f, pool = group_pool
    warm = criterion_09_sums(pool, 9010, 10)
    cold = criterion_09_sums(pool, 9010, 10, cold=True)
    assert warm == cold
    assert all(evaluate(f, s) == 0 for s in warm)


def test_cache_stays_within_its_bounds(group_pool, monkeypatch):
    """The anchors, the fits per anchor and the membership memo stay
    within their bounds, also when the bounds are 3, with the same sums;
    _clear_anchor_cache empties the cache and the memo."""
    f, pool = group_pool
    expected = criterion_09_sums(pool, 9011, 10)
    assert len(cons._ANCHOR_CACHE) <= cons._ANCHOR_LIMIT
    assert max(len(fits) for fits in cons._ANCHOR_CACHE.values()) <= cons._FITS_PER_ANCHOR
    info = _on_cubic.cache_info()
    assert 0 < info.currsize <= info.maxsize == 128
    cons._clear_anchor_cache()
    assert not cons._ANCHOR_CACHE and _on_cubic.cache_info().currsize == 0
    monkeypatch.setattr(cons, "_ANCHOR_LIMIT", 3)
    bounded = functools.lru_cache(maxsize=3)(_on_cubic.__wrapped__)
    monkeypatch.setattr(cons, "_on_cubic", bounded)
    seen, original = [], cons._cache_fit

    def watched(p_key, fit):
        original(p_key, fit)
        seen.append(len(cons._ANCHOR_CACHE))

    monkeypatch.setattr(cons, "_cache_fit", watched)
    assert criterion_09_sums(pool, 9011, 10) == expected
    assert seen and max(seen) == 3
    # more misses than keys kept: the memo evicted, and stayed full
    info = bounded.cache_info()
    assert info.currsize == 3 and info.misses > 3


def test_the_membership_memo_keeps_exact_verdicts(group_pool):
    """The memo keeps each verdict under the terms of the form it was
    made on: on the pool's cubic and on a fit of another cubic, a
    repeated test is a hit and equals the expanded cubic's verdict, so a
    point admitted on one cubic reads False on the other."""
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 2)
    assert _on_cubic.cache_info().hits > 0
    g = weierstrass(0, 8)
    other_pool = grow_pool(g, CURVES[5][2], 20)
    other = first_anchor_fit(other_pool, other_pool[0])
    fit = next(fit for fits in cons._ANCHOR_CACHE.values() for fit in fits)
    assert other.terms != fit.terms
    for pt in pool[:10]:
        x = _canonical(pt.coords)
        assert evaluate(g, pt) != 0
        for record in (fit, other):
            verdict = _on_cubic(record.terms, x)
            hits = _on_cubic.cache_info().hits
            assert _on_cubic(record.terms, x) == verdict
            assert _on_cubic.cache_info().hits == hits + 1
            assert verdict == (evaluate(expand_cubic(record.params), Point(*x)) == 0)
        assert _on_cubic(fit.terms, x) and not _on_cubic(other.terms, x)


def test_fit_budget_of_the_criterion_09_mix(group_pool, monkeypatch):
    """140 criterion-09 ops on the 40-point pool fit at most half as often
    as one refit per chord did."""
    f, pool = group_pool
    fitted, original = [], cons.fit_nine_points

    def counted(labels):
        fitted.append(labels)
        return original(labels)

    monkeypatch.setattr(cons, "fit_nine_points", counted)
    assert len(criterion_09_sums(pool, 9009, 10)) == 140
    assert len(fitted) <= FITS_WITHOUT_CACHE // 2


def test_a_second_group_add_reduces_no_pool_point(group_pool, monkeypatch):
    """Each point keeps its canonical key, so group_add on the same list
    again builds its pool without reducing a pool point; the sums match
    those on freshly built points, whose keys are computed anew."""
    f, pool = group_pool
    pairs = [(pool[0], pool[7]), (pool[3], pool[3]), (pool[12], pool[30])]
    sums = [group_add(pool, FLEX, p, q, verify_flex=False) for p, q in pairs]
    pool_coords = {id(pt.coords) for pt in pool}
    reduced, original = [], core._canonical

    def counted(coords):
        if id(coords) in pool_coords:
            reduced.append(coords)
        return original(coords)

    for module in (core, cons):
        monkeypatch.setattr(module, "_canonical", counted)
    assert [group_add(pool, FLEX, p, q, verify_flex=False) for p, q in pairs] == sums
    assert reduced == []
    fresh = [Point(*pt.coords) for pt in pool]
    index = {pt: i for i, pt in enumerate(pool)}
    again = [
        group_add(fresh, FLEX, fresh[index[p]], fresh[index[q]], verify_flex=False)
        for p, q in pairs
    ]
    assert again == sums


def test_third_point_general_neither_reads_nor_fills_the_cache(group_pool, monkeypatch):
    """After group_add caches a fit at p, third_point_general still
    refits the chord pq and leaves the cache as it was, in content and in
    least-recently-used order."""
    f, pool = group_pool
    p, q = pool[0], pool[7]
    expected = third_point_general(pool, p, q)
    assert not cons._ANCHOR_CACHE
    group_add(pool, FLEX, p, q, verify_flex=False)
    before = [(key, list(fits)) for key, fits in cons._ANCHOR_CACHE.items()]
    assert _canonical(p.coords) in dict(before)
    assert before[-1][0] != _canonical(p.coords)  # a read at p would move p last
    fitted, read = [], []
    original, original_cached_fits = cons.fit_nine_points, cons._cached_fits

    def counted(labels):
        fitted.append(labels)
        return original(labels)

    def cached_fits(pool, p_key):
        read.append(p_key)
        return original_cached_fits(pool, p_key)

    monkeypatch.setattr(cons, "fit_nine_points", counted)
    monkeypatch.setattr(cons, "_cached_fits", cached_fits)
    assert third_point_general(pool, p, q) == expected
    assert fitted and read == []
    assert [(key, list(fits)) for key, fits in cons._ANCHOR_CACHE.items()] == before


def test_tangent_third_at_reads_the_cache(group_pool, monkeypatch):
    f, pool = group_pool
    expected = {p: tangent_third_at(pool, p) for p in pool}
    criterion_09_sums(pool, 9009, 10)
    cached = [p for p in pool if _canonical(p.coords) in cons._ANCHOR_CACHE]
    assert len(cached) > 20
    fitted, original = [], cons.fit_nine_points

    def counted(labels):
        fitted.append(labels)
        return original(labels)

    monkeypatch.setattr(cons, "fit_nine_points", counted)
    assert {p: tangent_third_at(pool, p) for p in cached} == {p: expected[p] for p in cached}
    assert fitted == []


def test_tangent_third_at_skips_a_cached_fit_that_refuses(group_pool, monkeypatch):
    f, pool = group_pool
    p = pool[0]
    expected = tangent_third_at(pool, p)
    fit = first_anchor_fit(pool, p)
    params = fit.params
    cons._cache_fit(fit.labels[0], fit)
    refused = []

    def refusing(fit_params):
        if fit_params is params:
            refused.append(fit_params)
            raise cons.DegenerateIntermediateError("probe")
        return original(fit_params)

    original = cons.tangent_third_point
    monkeypatch.setattr(cons, "tangent_third_point", refusing)
    assert tangent_third_at(pool, p) == expected
    assert refused == [params]


def test_threads_share_the_cache(group_pool, monkeypatch):
    """Four threads adding on one pool, with cache and membership-memo
    bounds small enough to evict all the time, get the sums of a single
    thread."""
    f, pool = group_pool
    expected = criterion_09_sums(pool, 9012, 2)
    cons._clear_anchor_cache()
    monkeypatch.setattr(cons, "_ANCHOR_LIMIT", 2)
    monkeypatch.setattr(cons, "_on_cubic", functools.lru_cache(maxsize=2)(_on_cubic.__wrapped__))
    results, errors = {}, []

    def work(n):
        try:
            results[n] = criterion_09_sums(pool, 9012, 2)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == {n: expected for n in range(4)}


def multiples(f, base, ns):
    """The multiples nP of P = base for n in ns (each n >= 2), by oracle
    chords through the flex."""
    out, nP = [], base
    for n in range(2, max(ns) + 1):
        nP = oracle.third(f, FLEX, oracle.third(f, nP, base))  # the tangent at base for n = 2
        if n in ns:
            out.append(nP)
    return out


def off_curve_grid(f, count):
    """The first `count` points (1, i, j), |i|, |j| <= 6, off f = 0."""
    grid = (Point(1, i, j) for i in range(-6, 7) for j in range(-6, 7))
    return [pt for pt in grid if evaluate(f, pt) != 0][:count]


def assert_record_check_is_the_bracket(fit, points):
    """The record's membership test is _cubic_value(params, .) == 0 at
    every point, with both verdicts seen, and its terms are the
    primitive form of expand_cubic(params)."""
    params = fit.params
    verdicts = set()
    for pt in points:
        x = _canonical(pt.coords)
        on = cons._cubic_value(params, x) == 0
        assert _on_cubic(fit.terms, x) == on, (fit.labels[0], x)
        verdicts.add(on)
    assert verdicts == {True, False}
    assert all(type(c) is int for *_, c in fit.terms)
    assert {(i, j, k): c for i, j, k, c in fit.terms} == expand_cubic(params).primitive().coeffs


def test_the_record_check_is_the_bracket(group_pool):
    """Every fit cached by seeded criterion-09 sums on the 40-point pool,
    and fits on a pool of multiples 12P..21P (hundreds of bits): the
    record's check agrees with the bracket on the pool points, the nine
    labels and 50 off-curve grid points."""
    f, pool = group_pool
    grid = off_curve_grid(f, 50)
    assert len(grid) == 50
    criterion_09_sums(pool, 9009, 10)
    fits = [fit for fits in cons._ANCHOR_CACHE.values() for fit in fits]
    assert len(fits) > 20
    tall = [pt for base in pool[:2] for pt in multiples(f, base, range(12, 22))]
    assert max(abs(c).bit_length() for pt in tall for c in pt.coords) > 200
    fits += [first_anchor_fit(tall, p) for p in tall[:3]]
    for fit in fits:
        labels = [Point(*key) for key in fit.labels]
        assert_record_check_is_the_bracket(fit, [*pool, *tall, *labels, *grid])


def test_pool_fits_expand_to_the_symbolic_form(group_pool):
    """expand_cubic's closed form is the form that the expression evaluator
    expands from CUBIC_EXPRESSION, on every fit cached by seeded
    criterion-09 sums on the 40-point pool and on fits of multiples
    12P..21P (hundreds of bits)."""
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 4)
    fits = [fit for fits in cons._ANCHOR_CACHE.values() for fit in fits]
    assert len(fits) > 10
    tall = [pt for base in pool[:2] for pt in multiples(f, base, range(12, 22))]
    fits += [first_anchor_fit(tall, p) for p in tall[:3]]
    cubic = parse(cons.CUBIC_EXPRESSION)
    for fit in fits:
        assert cons.expand_cubic(fit.params) == eval_symbolic(cubic, params_environment(fit.params))


def test_each_record_is_built_once(group_pool, monkeypatch):
    """Each record is built, with one cubic expansion, once.  The first
    pass of 140 criterion-09 ops expands no fit twice, and every record it
    builds is either cached or belongs to a fit that refused the chord it
    was built for: a fill caches only a fit that serves its chord, and
    moves on to the next selection otherwise.  Every cached fit then
    serves the chords it was cached for, so the second and third passes
    are warm: they expand nothing and cache nothing."""
    f, pool = group_pool
    built, cached, anchored = [], [], []
    expanded = []
    anchor_fit, cache_fit, anchored_third = cons._anchor_fit, cons._cache_fit, cons._anchored_third
    expand = cons.expand_cubic

    def counted_expand(params):
        expanded.append(params)
        return expand(params)

    def counted_anchor_fit(labels, params):
        built.append(anchor_fit(labels, params))
        return built[-1]

    def counted_cache_fit(p_key, fit):
        cached.append(fit)
        cache_fit(p_key, fit)

    def counted_anchored_third(fit, x):
        try:
            z = anchored_third(fit, x)
        except ConstructionError:
            anchored.append((fit, False))
            raise
        anchored.append((fit, True))
        return z

    monkeypatch.setattr(cons, "expand_cubic", counted_expand)
    monkeypatch.setattr(cons, "_anchor_fit", counted_anchor_fit)
    monkeypatch.setattr(cons, "_cache_fit", counted_cache_fit)
    monkeypatch.setattr(cons, "_anchored_third", counted_anchored_third)
    sums = criterion_09_sums(pool, 9009, 10)
    assert len(sums) == 140
    assert cached and len({id(params) for params in expanded}) == len(expanded)
    assert len(built) == len(expanded)
    cached_ids = {id(fit) for fit in cached}
    assert len(cached_ids) == len(cached)
    refused_fills = [fit for fit in built if id(fit) not in cached_ids]
    # a fit built in a fill is offered the fill's chord first, and a
    # refused one is offered nothing else
    verdicts = {}
    for fit, served in anchored:
        verdicts.setdefault(id(fit), []).append(served)
    assert all(verdicts[id(fit)] == [False] for fit in refused_fills)
    assert all(verdicts[id(fit)][0] for fit in cached)
    assert len(expanded) - len(cached) == len(refused_fills)
    for _ in range(2):
        expanded.clear()
        cached.clear()
        assert criterion_09_sums(pool, 9009, 10) == sums
        assert expanded == [] and cached == []


@pytest.mark.parametrize("case", ["b_on_B", "c_on_a1b1"])
def test_a_refused_fit_moves_the_fill_on(group_pool, monkeypatch, case):
    """Hand-made parameters that _anchor_fit refuses at step lw.lv, as lw
    and lv coincide: with b on B, both are B (no fit has b on B = ef),
    and with c on a1b1, the chain's lines cb1 and a1b1 coincide.  When
    the first selection of _chord's fill at p fits to them, _refit moves
    on to the next selections, and the first of those whose fit
    _anchor_fit admits and serves the chord is cached: every fit is a
    fill selection, without x, so no fallback refit ran."""
    f, pool = group_pool
    p, b, x = pool[0], pool[1], pool[2]
    a1 = Point(1, 2, 3)
    if case == "b_on_B":
        B = join(p, b)
        X = meet(B, Line(1, 0, 0))
        b1 = Point(1, 5, 2)
    else:
        X = Point(3, 1, 1)
        B = join(X, Point(1, -1, 3))
        b1 = meet(join(a1, x), Line(1, 1, 1))
    params = CubicParams(
        a=p,
        a1=a1,
        b=b,
        b1=b1,
        c=x,  # so x is on the cubic: the line xc vanishes
        k=Point(2, 1, 7),
        A=join(X, Point(1, 1, 1)),
        B=B,
        C=join(X, Point(1, -1, 2)),
    )
    params.validate()
    L = _cross(p.coords, x.coords)
    labels = (p, b, *[pt for pt in pool[3:] if _dot(L, pt.coords) != 0][:7])
    with pytest.raises(DegenerateIntermediateError) as refusal:
        cons._anchor_fit(NinePointLabels.from_points(labels), params)
    assert refusal.value.step == "lw.lv"

    fitted, original = [], cons.fit_nine_points

    def first_fit_degenerate(nine):
        fitted.append(nine)
        return params if len(fitted) == 1 else original(nine)

    monkeypatch.setattr(cons, "fit_nine_points", first_fit_degenerate)
    assert cons._chord(cons._known_pool(pool), p, x) == oracle.third(f, p, x)
    keys = [tuple(_canonical(pt.coords) for pt in nine) for nine in fitted]
    assert len(keys) > 1 and all(_canonical(x.coords) not in nine for nine in keys)
    cached = cons._ANCHOR_CACHE[_canonical(p.coords)]
    assert len(cached) == 1 and cached[0].params is not params
    assert cached[0].labels == keys[-1]


@pytest.mark.parametrize("seed", range(10))
def test_a_pool_of_nine_falls_back_on_the_refit(seed, monkeypatch):
    """group_add on only the nine labels of a random scene: the chord
    through two of them leaves seven candidates, too few for a fit at its
    first endpoint, so it falls back on third_point_general.  The sum is
    on the cubic through the nine."""
    nine = list(random_scene(seed, 0).nine_points())
    fallbacks, original = [], cons.third_point_general

    def counted(known, p, q):
        fallbacks.append((p, q))
        return original(known, p, q)

    monkeypatch.setattr(cons, "third_point_general", counted)
    o, p, q = nine[:3]
    total = group_add(nine, o, p, q, verify_flex=False)
    assert evaluate(nullspace_fit(nine, 3), total) == 0
    assert fallbacks
