"""Random expression generators for parser and evaluator fuzzing, and the
environment that binds a fitted cubic's parameters."""

from __future__ import annotations

import random

from grassmann.core import ZERO_LINE, ZERO_POINT, KindError, Line, Point, kind_of, product
from grassmann.expr import Chain, Environment, Group, Name, VAR, Expr

POINT_NAMES = ["a", "b", "c", "k", "p", "q", "r", "s", "a_1", "b_1", "c_1", "g_2", "h_1"]
LINE_NAMES = ["A", "B", "C", "D", "K", "L", "M"]

# a zero object of each kind: core.product on two of them gives the kind
# of their product, or a KindError for scalar*scalar
_ZERO_OF_KIND = {"point": ZERO_POINT, "line": ZERO_LINE, "scalar": 0}


def random_ast(rng: random.Random, depth: int = 0) -> Expr:
    """A parser-normalized AST: every Chain and Group has at least two parts."""
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        pool = POINT_NAMES + LINE_NAMES + ["x"]
        name = rng.choice(pool)
        return VAR if name == "x" else Name(name)
    maker = Chain if roll < 0.75 else Group
    n = rng.randint(2, 4)
    return maker(tuple(random_ast(rng, depth + 1) for _ in range(n)))


def typed_random_expr(rng: random.Random, depth: int = 0):
    """A well-typed AST and its kind; never folds scalar with scalar."""
    maker = Chain if rng.random() < 0.7 else Group
    n = rng.randint(2, 4)
    parts = []
    kind = None
    guard = 0
    while len(parts) < n:
        guard += 1
        if guard > 60:
            break
        if depth < 2 and rng.random() < 0.25:
            sub, sub_kind = typed_random_expr(rng, depth + 1)
        else:
            pool = POINT_NAMES + LINE_NAMES + ["x", "x", "x"]
            name = rng.choice(pool)
            if name == "x":
                sub, sub_kind = VAR, "point"
            else:
                sub = Name(name)
                sub_kind = "point" if name[0].islower() else "line"
        if kind is None:
            parts.append(sub)
            kind = sub_kind
            continue
        try:
            next_kind = kind_of(product(_ZERO_OF_KIND[kind], _ZERO_OF_KIND[sub_kind]))
        except KindError:
            continue
        parts.append(sub)
        kind = next_kind
    if len(parts) < 2:
        return typed_random_expr(rng, depth)
    return maker(tuple(parts)), kind


def random_environment(rng: random.Random, bound: int = 20) -> Environment:
    """Concrete nonzero bindings for every generator name, plus x."""

    def triple():
        while True:
            t = tuple(rng.randint(-bound, bound) for _ in range(3))
            if any(t):
                return t

    bindings = {}
    for name in POINT_NAMES:
        bindings[name] = Point(*triple())
    for name in LINE_NAMES:
        bindings[name] = Line(*triple())
    return Environment(bindings, x=Point(*triple()))


def params_environment(params, x=None, **extra) -> Environment:
    """The nine parameters of a cubic bound to the names the cubic's
    expression uses: a, a_1, b, b_1, c, k, A, B, C, with `extra` names
    (such as q) bound besides them and x bound to `x`."""
    return Environment(
        {
            "a": params.a,
            "a_1": params.a1,
            "b": params.b,
            "b_1": params.b1,
            "c": params.c,
            "k": params.k,
            "A": params.A,
            "B": params.B,
            "C": params.C,
            **extra,
        },
        x=x,
    )
