"""The anchored chord and the anchor cache.

A fit with p in slot a gives the third point of the line through p and any
curve point x without a refit (constructions._anchored_third).  group_add
keeps such fits per anchor in a bounded module-level cache, which
third_point_general and tangent_third_at read.  The conftest fixture
empties the cache before every test.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann import constructions as cons
from grassmann.constructions import (
    ConstructionError,
    evaluate_cubic,
    general_position_violation,
    group_add,
    tangent_third_at,
    third_point_general,
)
from grassmann.core import Point, _canonical, _dot
from grassmann.poly import evaluate

from curves import CURVES, FLEX, chord_third, grow_pool, weierstrass

# fit_nine_points calls of criterion_09_sums(pool, 9009, 10) before the
# anchor cache: one refit per chord, and another for each refused one
FITS_WITHOUT_CACHE = 289


@pytest.fixture(scope="module")
def group_pool():
    """The 40-point pool of the criterion-09 group-law test."""
    f = weierstrass(0, 17)
    return f, grow_pool(f, CURVES[0][2], 40)


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
    """(label keys, params) of the first fitting general-position selection
    at p whose chain ybBkCb1 moves, as group_add's first fill makes it."""
    if candidates is None:
        candidates = [pt for pt in pool if pt != p]
    labels, params = next(fit for fit in cons._fits((p,), candidates) if cons._chain_moves(fit[1]))
    return tuple(_canonical(pt.coords) for pt in labels.as_tuple()), params


def test_every_cached_fit_passes_through_its_labels(group_pool):
    f, pool = group_pool
    criterion_09_sums(pool, 9009, 10)
    assert len(cons._ANCHOR_CACHE) > 20
    for key, fits in cons._ANCHOR_CACHE.items():
        assert fits
        for labels, params in fits:
            assert len(labels) == 9
            assert labels[0] == key == _canonical(params.a.coords)
            assert (labels[1], labels[2]) == (params.b.coords, params.c.coords)
            points = [Point(*label) for label in labels]
            assert general_position_violation(points) is None
            assert all(evaluate_cubic(params, pt) == 0 for pt in points)
            assert cons._chain_moves(params)


def test_anchored_chord_equals_the_refit_on_every_pool_pair(group_pool):
    """All 1560 ordered pairs (p, x): the anchored chord on one fit at p,
    made from the whole pool so that x can be any label, either refuses
    with a typed error or gives the refit's point; group_add's chord path
    gives the refit's point on every pair."""
    f, pool = group_pool
    pairs = list(itertools.permutations(pool, 2))
    assert len(pairs) == 1560
    refit = {(p, x): third_point_general(pool, p, x) for p, x in pairs}
    assert not cons._ANCHOR_CACHE
    fits = {p: first_anchor_fit(pool, p) for p in pool}
    served, refused = {}, 0
    for p, x in pairs:
        labels, params = fits[p]
        x_key = _canonical(x.coords)
        L = cons._cross(labels[0], x_key)
        if x_key == labels[1]:
            case = "slot b"
        elif x_key in labels[2:]:
            case = "x among c..i"
        elif any(_dot(L, key) == 0 for key in labels[1:]):
            case = "label on L"
        else:
            case = "fixed point"
        try:
            z = cons._anchored_third(params, labels, x)
        except ConstructionError:
            refused += 1
            continue
        assert z == refit[p, x], (p, x, case)
        served[case] = served.get(case, 0) + 1
    assert set(served) == {"slot b", "x among c..i", "label on L", "fixed point"}
    assert sum(served.values()) + refused == 1560
    assert refused < 200, served
    pool_dict = cons._known_pool(pool)
    for p, x in pairs:
        assert cons._chord(pool_dict, p, x, fill=True) == refit[p, x]


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
        labels, params = first_anchor_fit(pool, p, order)
    except StopIteration:
        return
    try:
        z = cons._anchored_third(params, labels, x)
    except ConstructionError:
        return
    assert on_curve
    assert z.coords == _canonical(chord_third(f, p, x).coords)
    assert z.coords not in (labels[0], _canonical(x.coords))


def test_cold_and_warm_cache_give_the_same_sums(group_pool):
    f, pool = group_pool
    warm = criterion_09_sums(pool, 9010, 10)
    cold = criterion_09_sums(pool, 9010, 10, cold=True)
    assert warm == cold
    assert all(evaluate(f, s) == 0 for s in warm)


def test_cache_stays_within_its_bounds(group_pool, monkeypatch):
    f, pool = group_pool
    expected = criterion_09_sums(pool, 9011, 10)
    assert len(cons._ANCHOR_CACHE) <= cons._ANCHOR_LIMIT
    assert max(len(fits) for fits in cons._ANCHOR_CACHE.values()) <= cons._FITS_PER_ANCHOR
    cons._clear_anchor_cache()
    monkeypatch.setattr(cons, "_ANCHOR_LIMIT", 3)
    seen = []
    original = cons._cache_fit

    def watched(p_key, fit):
        original(p_key, fit)
        seen.append(len(cons._ANCHOR_CACHE))

    monkeypatch.setattr(cons, "_cache_fit", watched)
    assert criterion_09_sums(pool, 9011, 10) == expected
    assert seen and max(seen) == 3


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


def test_third_point_general_only_reads_the_cache(group_pool, monkeypatch):
    f, pool = group_pool
    p, q = pool[0], pool[7]
    expected = third_point_general(pool, p, q)
    assert not cons._ANCHOR_CACHE
    group_add(pool, FLEX, p, q, verify_flex=False)
    assert _canonical(p.coords) in cons._ANCHOR_CACHE
    fitted, original = [], cons.fit_nine_points

    def counted(labels):
        fitted.append(labels)
        return original(labels)

    monkeypatch.setattr(cons, "fit_nine_points", counted)
    assert third_point_general(pool, p, q) == expected
    assert fitted == []


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
    labels, params = first_anchor_fit(pool, p)
    cons._cache_fit(labels[0], (labels, params))
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
    """Four threads adding on one pool, with a cache bound small enough to
    evict all the time, get the sums of a single thread."""
    f, pool = group_pool
    expected = criterion_09_sums(pool, 9012, 2)
    cons._clear_anchor_cache()
    monkeypatch.setattr(cons, "_ANCHOR_LIMIT", 2)
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
