"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; every comparison is zero
tolerance.  Instance counts and the single runtime bound are fixed here,
not tunable.
"""

import random
import time

from grassmann import constructions as cons
from grassmann.constructions import (
    NinePointLabels,
    check_ten_points,
    conic_cubic_sixth,
    conic_five_points,
    evaluate_cubic,
    expand_cubic,
    fit_nine_points_trace,
    group_add,
    is_flex,
    pascal_points,
    tangent_at_a,
    tangent_third_point,
    third_point_general,
    third_point_on_chord_ab,
)
from grassmann.core import (
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
from grassmann.expr import Environment, eval_numeric, eval_symbolic, parse, pretty_print
from grassmann.generate import random_nine_points
from grassmann.oracle import (
    gradient_tangent,
    hessian_flex_oracle,
    tangent_third,
    third,
)
from grassmann.poly import (
    evaluate,
    monomials,
    nullspace_fit,
    restrict_to_line,
    _bareiss,
)

from curves import CURVES, FLEX, grow_pool, weierstrass
from exprgen import params_environment, random_ast, random_environment, typed_random_expr


def report(num, name, ok):
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def proportional(u, v):
    pivot = next(((a, b) for a, b in zip(u, v) if a or b), None)
    if pivot is None:
        return True
    pa, pb = pivot
    return pa != 0 and pb != 0 and all(a * pb == b * pa for a, b in zip(u, v))


_FIT_CACHE: list = []


def fit_instances():
    if not _FIT_CACHE:
        for i in range(200):
            labels = random_nine_points(random.Random(1000 + i))
            trace = fit_nine_points_trace(labels)
            _FIT_CACHE.append((labels, trace))
    return _FIT_CACHE


def test_criterion_01_nine_point_fit():
    start = time.perf_counter()
    ok = True
    for labels, trace in fit_instances():
        params = trace.params
        if not all(evaluate_cubic(params, p) == 0 for p in labels.as_tuple()):
            ok = False
            break
        expanded = expand_cubic(params)
        fitted = nullspace_fit(labels.as_tuple(), 3)
        if not proportional(expanded.coefficient_vector(), fitted.coefficient_vector()):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    print(f"[acceptance] criterion  1 runtime: {elapsed:.1f}s for 200 fits")
    report(1, "nine-point fit vs nullspace oracle, 200 scenes", ok)


def test_criterion_02_ten_point_test():
    ok = True
    for i in range(100):
        labels = random_nine_points(random.Random(2000 + i))
        nine = list(labels.as_tuple())
        p10 = third_point_general(nine, labels.a, labels.b)
        if not check_ten_points(labels, p10):
            ok = False
            break
        f = nullspace_fit(nine, 3)
        bump = 1
        while True:
            off = Point(p10.coords[0], p10.coords[1], p10.coords[2] + bump)
            if evaluate(f, off) != 0:
                break
            bump += 1
        if check_ten_points(labels, off):
            ok = False
            break
    report(2, "ten-point membership test, 100 scenes both ways", ok)


def test_criterion_03_fit_incidence_replay():
    aux = parse("(xf.xg_2Cg_1.xh_2Ch_1)")
    chain_l = parse("xaAa_1")
    ok = True
    for labels, trace in fit_instances():
        params = trace.params
        # when x = d the first chain collapses onto the line cd
        L = eval_numeric(chain_l, params_environment(params, x=labels.d))
        da1 = join(labels.d, params.a1)
        cd = join(labels.c, labels.d)
        if not (projectively_equal(L, da1) and projectively_equal(da1, cd)):
            ok = False
            break
        aux_bindings = {
            "f": labels.f,
            "g_1": trace.g1,
            "g_2": trace.g2,
            "h_1": trace.h1,
            "h_2": trace.h2,
            "C": params.C,
        }
        if any(
            eval_numeric(aux, Environment(aux_bindings, x=pt)) != 0
            for pt in (trace.y, trace.z, params.k)
        ):
            ok = False
            break
        if any(
            incidence(line, pt) == 0
            for pt in (trace.y, trace.z)
            for line in (params.B, params.C)
        ):
            ok = False
            break
    report(3, "nine-point fit incidence certificates, every criterion-1 instance", ok)


def test_criterion_04_chord_third_point():
    ok = True
    for i in range(200):
        labels = random_nine_points(random.Random(4000 + i))
        trace = fit_nine_points_trace(labels)
        params = trace.params
        y = third_point_on_chord_ab(params)
        if incidence(join(params.a, params.b), y) != 0:
            ok = False
            break
        f = expand_cubic(params)
        if evaluate(f, y) != 0:
            ok = False
            break
        if not projectively_equal(y, third(f, params.a, params.b)):
            ok = False
            break
    report(4, "chord third point vs deflation oracle, 200 instances", ok)


def test_criterion_05_tangent():
    ok = True
    for i in range(200):
        labels = random_nine_points(random.Random(5000 + i))
        params = fit_nine_points_trace(labels).params
        T = tangent_at_a(params)
        f = expand_cubic(params)
        grad = gradient_tangent(f, params.a)
        if grad.is_zero or T.is_zero:
            ok = False
            break
        if not projectively_equal(T, grad):
            ok = False
            break
        if tangent_third(f, T, params.a)[0] < 2:
            ok = False
            break
    report(5, "tangent vs gradient oracle with contact >= 2, 200 instances", ok)


def test_criterion_06_tangent_third_and_flex():
    ok = True
    aux_conic_ast = parse("(qa_1.xc.xbBkCb_1)")
    lemma_y_ast = parse("b_1cCkBb.b_1c")
    for i in range(100):
        labels = random_nine_points(random.Random(6000 + i))
        params = fit_nine_points_trace(labels).params
        w = tangent_third_point(params)
        tangent = tangent_at_a(params)
        f = expand_cubic(params)
        if incidence(tangent, w) != 0 or evaluate(f, w) != 0:
            ok = False
            break
        mult, expected = tangent_third(f, tangent, params.a)
        if (mult == 3) != projectively_equal(w, params.a):
            ok = False
            break
        if not projectively_equal(w, expected):
            ok = False
            break
        env = params_environment(params, q=meet(tangent, params.A))
        conic = eval_symbolic(aux_conic_ast, env)
        checkpoints = (params.a, params.b, params.c, eval_numeric(lemma_y_ast, env))
        if any(evaluate(conic, pt) != 0 for pt in checkpoints):
            ok = False
            break
    flex_fixtures = 0
    for a4, a6, seeds in CURVES:
        f = weierstrass(a4, a6)
        pool = grow_pool(f, seeds, 22, max_bits=520)
        for rotation in (0, 3):
            rotated = pool[rotation:] + pool[:rotation]
            w = params = None
            for aux in cons._general_position_selections([FLEX], rotated, 8):
                try:
                    params = cons.fit_nine_points(NinePointLabels.from_points((FLEX, *aux)))
                    w = tangent_third_point(params)
                    break
                except cons.ConstructionError:
                    continue
            if w is None or not projectively_equal(w, FLEX):
                ok = False
                break
            flex = is_flex(params)
            if not flex or hessian_flex_oracle(expand_cubic(params), FLEX) != flex:
                ok = False
                break
            flex_fixtures += 1
        if not ok:
            break
    ok = ok and flex_fixtures >= 10
    print(f"[acceptance] criterion  6 flex fixtures: {flex_fixtures}")
    report(6, "tangent third point, auxiliary conic and flex test", ok)


def test_criterion_07_conic_cubic_sixth():
    ok = True
    for i in range(100):
        labels = random_nine_points(random.Random(7000 + i))
        result = conic_cubic_sixth(labels)
        z = result.z
        conic = nullspace_fit([labels.a, labels.c, labels.d, labels.e, labels.f], 2)
        cubic = nullspace_fit(labels.as_tuple(), 3)
        if evaluate(conic, z) != 0 or evaluate(cubic, z) != 0:
            ok = False
            break
        # the oracle chord chain a.((cd).(ef)) on the nullspace cubic
        chain = third(
            cubic,
            labels.a,
            third(cubic, third(cubic, labels.c, labels.d), third(cubic, labels.e, labels.f)),
        )
        if not projectively_equal(z, chain):
            ok = False
            break
    report(7, "conic-cubic sixth point, both methods on 100 instances", ok)


def _random_conic_instance(rng):
    while True:
        pts = [Point(*(rng.randint(-9, 9) for _ in range(3))) for _ in range(3)]
        A = Line(*(rng.randint(-9, 9) for _ in range(3)))
        B = Line(*(rng.randint(-9, 9) for _ in range(3)))
        if any(p.is_zero for p in pts) or A.is_zero or B.is_zero:
            continue
        a, b, c = pts
        if bracket(a, b, c) == 0 or projectively_equal(A, B):
            continue
        if any(incidence(A, p) == 0 or incidence(B, p) == 0 for p in pts):
            continue
        return a, b, c, A, B


def _conic_pencil_points(rng, n):
    """n rational points on the conic through five random general points."""
    while True:
        base = [Point(*(rng.randint(-8, 8) for _ in range(3))) for _ in range(5)]
        if any(p.is_zero for p in base):
            continue
        if cons.general_position_violation(base) is not None:
            continue
        try:
            conic = nullspace_fit(base, 2)
        except Exception:
            continue
        pts = []
        guard = 0
        while len(pts) < n and guard < 200:
            guard += 1
            probe = Point(*(rng.randint(-15, 15) for _ in range(3)))
            if probe.is_zero or projectively_equal(probe, base[0]):
                continue
            try:
                form = restrict_to_line(conic, base[0], probe)
            except Exception:
                continue
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
            pts.append(cand)
        if len(pts) == n:
            return pts, conic


def test_criterion_08_conic_constructions():
    ok = True
    rng = random.Random(8001)
    cubic_conic_ast = parse("xaAbBcx")
    for _ in range(100):
        a, b, c, A, B = _random_conic_instance(rng)
        try:
            five = conic_five_points(a, b, c, A, B)
        except cons.ConstructionError:
            continue
        conic = eval_symbolic(cubic_conic_ast, Environment({"a": a, "b": b, "c": c, "A": A, "B": B}))
        if conic.is_zero or conic.degree != 2:
            ok = False
            break
        if any(evaluate(conic, pt) != 0 for pt in five):
            ok = False
            break
    # hexagon meets collinear exactly for conic hexagons
    rng2 = random.Random(8002)
    for _ in range(100):
        six, conic = _conic_pencil_points(rng2, 6)
        m1, m2, m3 = pascal_points(*six)
        if bracket(m1, m2, m3) != 0:
            ok = False
            break
    rng3 = random.Random(8003)
    done = 0
    while done < 100 and ok:
        six = [Point(*(rng3.randint(-9, 9) for _ in range(3))) for _ in range(6)]
        if any(p.is_zero for p in six):
            continue
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
        m1, m2, m3 = pascal_points(*six)
        if m1.is_zero or m2.is_zero or m3.is_zero:
            continue
        if bracket(m1, m2, m3) == 0:
            ok = False
            break
        done += 1
    # the meet-of-joins expansion identity, coordinate exact
    rng4 = random.Random(8004)
    for _ in range(1000):
        quad = [Point(*(rng4.randint(-20, 20) for _ in range(3))) for _ in range(4)]
        a, b, c, d = quad
        lhs = meet(join(a, b), join(c, d))
        sd = bracket(a, b, d)
        sc = bracket(a, b, c)
        rhs = tuple(sd * cc - sc * dc for cc, dc in zip(c.coords, d.coords))
        if lhs.coords != rhs:
            ok = False
            break
    report(8, "five-point conic, hexagon collinearity, expansion identity", ok)


def test_criterion_09_group_law():
    f = weierstrass(0, 17)
    pool = grow_pool(f, CURVES[0][2], 40)
    known = pool
    ok = hessian_flex_oracle(f, FLEX)
    ok = ok and projectively_equal(cons.tangent_third_at(known, FLEX), FLEX)
    rng = random.Random(9000)
    for _ in range(1000):
        p, q = rng.sample(pool, 2)
        s1 = group_add(known, FLEX, p, q, verify_flex=False)
        s2 = group_add(known, FLEX, q, p, verify_flex=False)
        if not projectively_equal(s1, s2) or evaluate(f, s1) != 0:
            ok = False
            break
    if ok:
        for _ in range(200):
            p, q, r = rng.sample(pool, 3)
            pq = group_add(known, FLEX, p, q, verify_flex=False)
            qr = group_add(known, FLEX, q, r, verify_flex=False)
            lhs = group_add(known + [pq], FLEX, pq, r, verify_flex=False)
            rhs = group_add(known + [qr], FLEX, p, qr, verify_flex=False)
            if not projectively_equal(lhs, rhs):
                ok = False
                break
    report(9, "group law: 1000 commutativity pairs, 200 associativity triples", ok)


CANONICAL_EXPRESSIONS = [
    "(xaAa_1.xbBkCb_1.xc)",
    "(xaAa_1.xbBkCb_1.xc)=0",
    "xaAbBcx",
    "xbBkCb_1x",
    "pq.rs",
    "abAcBd",
    "(x.p.q)",
    "(p.q.r)",
    "(ab_1)(a_1b)",
    "af.cd",
    "gaAa_1.gc",
    "gbB",
    "h_1g_1Cg_2.fh_1",
    "g_1h_1Ch_2.fg_1",
    "K.i_1i_2",
    "kg_2Cg_1.kf",
    "(kf.kg_2Cg_1.kh_2Ch_1)",
    "(xf.xg_2Cg_1.xh_2Ch_1)=0",
    "(abAa_1.abBkCb_1)c.ab",
    "(abBkCb_1.ac)a_1Aa",
    "(abBkCb_1.ac).a_1A",
    "cb_1CkBb",
    "b_1cCkBb",
    "(qa_1.xc.xbBkCb_1)=0",
    "aq.y(bz.(ab.yc)(aq.zc))",
    "xaAa_1Bcx=0",
    "(xa_1Aa.xb_1CkBb.xc)=0",
    "((pq)r)s",
]


def test_criterion_10_parser():
    ok = True
    from grassmann.expr import parse_statement

    for text in CANONICAL_EXPRESSIONS:
        ast, _ = parse_statement(text)
        if parse(pretty_print(ast)) != ast:
            ok = False
            break
    rng = random.Random(10000)
    if ok:
        for _ in range(500):
            ast = random_ast(rng)
            if parse(pretty_print(ast)) != ast:
                ok = False
                break
    # the degenerate-case list of the chain walk-through
    walk = parse("abAcBd")

    def fresh_env():
        while True:
            objs = {
                "a": Point(*(rng.randint(-9, 9) for _ in range(3))),
                "b": Point(*(rng.randint(-9, 9) for _ in range(3))),
                "c": Point(*(rng.randint(-9, 9) for _ in range(3))),
                "d": Point(*(rng.randint(-9, 9) for _ in range(3))),
                "A": Line(*(rng.randint(-9, 9) for _ in range(3))),
                "B": Line(*(rng.randint(-9, 9) for _ in range(3))),
            }
            if all(not o.is_zero for o in objs.values()):
                return objs

    if ok:
        for _ in range(20):
            base = fresh_env()
            generic = eval_numeric(walk, Environment(base))
            if not isinstance(generic, Line) or generic.is_zero:
                continue
            a, b, A, c, B = base["a"], base["b"], base["A"], base["c"], base["B"]
            abA = meet(join(a, b), A)
            degenerate_envs = [
                {**base, "b": scale(2, a)},
                {**base, "A": scale(-3, join(a, b))},
                {**base, "c": abA},
                {**base, "B": scale(7, join(abA, c))},
                {**base, "d": meet(join(abA, c), B)},
            ]
            for env in degenerate_envs:
                value = eval_numeric(walk, Environment(env))
                if not (isinstance(value, Line) and value.is_zero):
                    ok = False
                    break
            if not ok:
                break
    report(10, "parser round-trips, 500 fuzzed strings, degeneracy list", ok)


def test_criterion_11_symbolic_numeric_commutation():
    ok = True
    rng = random.Random(11000)
    for _ in range(1000):
        ast, kind = typed_random_expr(rng)
        env = random_environment(rng)
        numeric = eval_numeric(ast, env)
        symbolic = eval_symbolic(ast, env)
        if kind == "scalar":
            if evaluate(symbolic, env.x) != numeric:
                ok = False
                break
        else:
            if tuple(evaluate(f, env.x) for f in symbolic.entries) != numeric.coords:
                ok = False
                break
    report(11, "symbolic-then-substitute equals numeric, 1000 triples", ok)
