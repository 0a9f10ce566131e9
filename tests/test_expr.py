import random
import re
from fractions import Fraction

import pytest

from grassmann.core import (
    KindError,
    kind_of,
    Line,
    Point,
    ZERO_LINE,
    bracket,
    join,
    meet,
    projectively_equal,
    scale,
)
from grassmann.expr import (
    Chain,
    Environment,
    Name,
    ParseError,
    UnboundNameError,
    contains_x,
    eval_numeric,
    eval_symbolic,
    name_kind,
    parse,
    parse_statement,
    pretty_print,
)
from grassmann.poly import (
    HomPoly,
    PolyVector,
    evaluate,
    monomials,
    poly_cross,
    poly_dot,
    poly_scale,
)
from grassmann.scene import Scene, SceneError

from exprgen import random_ast, random_environment, typed_random_expr


class TestParse:
    def test_period_groups(self):
        assert parse("pq.rs") == Chain((Chain((Name("p"), Name("q"))), Chain((Name("r"), Name("s")))))

    def test_a_period_only_groups(self):
        assert parse("pq.rs") == parse("(pq)(rs)")
        assert parse("a.bc.d") == parse("a(bc)d")
        assert parse("x") == Name("x")

    def test_cubic_expression_shape(self):
        ast = parse("(xaAa_1.xbBkCb_1.xc)")
        assert isinstance(ast, Chain) and len(ast.parts) == 3
        assert ast.parts[0] == Chain((Name("x"), Name("a"), Name("A"), Name("a_1")))

    def test_plain_chain(self):
        assert parse("abAcBd") == Chain(tuple(Name(n) for n in ["a", "b", "A", "c", "B", "d"]))

    def test_subscripts_and_whitespace(self):
        assert parse(" a_1  b ") == Chain((Name("a_1"), Name("b")))

    def test_equation_flag(self):
        ast, eq = parse_statement("(xaAa_1.xbBkCb_1.xc)=0")
        assert eq and isinstance(ast, Chain)
        ast2, eq2 = parse_statement("pq.rs")
        assert not eq2

    def test_nested_parens(self):
        ast = parse("((pq)r)s")
        assert ast == Chain((Chain((Chain((Name("p"), Name("q"))), Name("r"))), Name("s")))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("a$b")
        with pytest.raises(ParseError):
            parse("a_")
        with pytest.raises(ParseError):
            parse("(ab")
        with pytest.raises(ParseError):
            parse("ab)")
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("ab..cd")
        with pytest.raises(ParseError):
            parse("ab=1")

    def test_determinism(self):
        text = "(xaAa_1.xbBkCb_1.xc)"
        assert parse(text) == parse(text)


# each text with its name_kind: ASCII letters and digits only, so a
# Unicode letter, a titlecase letter, a superscript digit or an
# Arabic-Indic digit is no name
NAME_KINDS = {
    "a": "point",
    "a_12": "point",
    "B_3": "line",
    "X": "line",
    "x": None,
    "é": None,
    "ǅ": None,
    "a_²": None,
    "a_٣": None,
    "a_": None,
    "ab": None,
}


def _parses_to_name(text):
    try:
        return parse(text) == Name(text)
    except ParseError:
        return False


def _scene_accepts(entry):
    try:
        Scene.parse(f"format: 1\n{entry}\n")
    except SceneError:
        return False
    return True


class TestOneGrammar:
    """expr owns what a name is: the parser, the scene format and the
    environment all agree with name_kind."""

    @pytest.mark.parametrize("text, kind", NAME_KINDS.items())
    def test_name_kind(self, text, kind):
        assert name_kind(text) == kind

    @pytest.mark.parametrize("text", NAME_KINDS)
    def test_parse_reads_exactly_the_names(self, text):
        assert _parses_to_name(text) == (text == "x" or name_kind(text) is not None)

    @pytest.mark.parametrize("text", NAME_KINDS)
    def test_scene_binds_exactly_the_names(self, text):
        assert _scene_accepts(f"point {text} = 1, 2, 3") == (name_kind(text) == "point")
        assert _scene_accepts(f"line {text} = 0, 1, -2") == (name_kind(text) == "line")

    @pytest.mark.parametrize("text", [t for t in NAME_KINDS if t != "x"])
    def test_environment_binds_exactly_the_names(self, text):
        if name_kind(text) == "point":
            assert Environment({text: Point(1, 2, 3)}).lookup(text) == Point(1, 2, 3)
        else:
            with pytest.raises(KindError, match=re.escape(repr(text))):
                Environment({text: Point(1, 2, 3)})

    @pytest.mark.parametrize("text, pos", [("a_", 1), ("ab=1", 2), ("a é", 2)])
    def test_a_character_outside_the_grammar_is_refused_where_it_stands(self, text, pos):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.pos == pos


class TestPrettyPrint:
    @pytest.mark.parametrize(
        "text",
        [
            "pq.rs",
            "(xaAa_1.xbBkCb_1.xc)",
            "((pq)r)s",
            "abAcBd",
            "aq.y(bz.(ab.yc)(aq.zc))",
            "(abAa_1.abBkCb_1)c.ab",
            "(abBkCb_1.ac)a_1Aa",
        ],
    )
    def test_round_trip(self, text):
        ast = parse(text)
        assert parse(pretty_print(ast)) == ast

    def test_explicit_parens_preserved(self):
        ast = parse("((pq)r)s")
        assert pretty_print(ast) == "(pq.r).s"
        assert parse("(pq.r).s") == ast

    def test_fuzzed_round_trips(self):
        rng = random.Random(7)
        for _ in range(300):
            ast = random_ast(rng)
            assert parse(pretty_print(ast)) == ast


def _depth(text: str) -> int:
    """How deep the parentheses of text nest."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def _some_text(e, rng, item=False) -> str:
    """One of the texts that parse to e, drawn at random: e as a group, or
    as one item of a group when item is set."""
    if isinstance(e, Name):
        return e.name
    side = "".join(p.name if isinstance(p, Name) else f"({_some_text(p, rng)})" for p in e.parts)
    if item:
        return rng.choice([side, f"({_some_text(e, rng)})"])
    return rng.choice([side, ".".join(_some_text(p, rng, item=True) for p in e.parts)])


class TestNestingDepth:
    """Parentheses nest at most 100 deep, so the parser, the folds and the
    printer recurse a bounded number of times."""

    def test_the_bound_parses_and_evaluates(self):
        assert parse("(" * 100 + "ab" + ")" * 100) == parse("ab")
        # ((ab)A)c..., a tree of 101 chains
        text = "ab"
        for k in range(100):
            text = f"({text}){'AcBk'[k % 4]}"
        ast = parse(text)
        assert _depth(text) == 100 and parse(pretty_print(ast)) == ast
        assert not contains_x(ast)
        assert kind_of(eval_numeric(ast, random_environment(random.Random(3)))) == "line"
        # (ab.c)d nested 100 deep, which a printer that parenthesizes every
        # chain of chains writes 199 deep
        text = "ab"
        for _ in range(100):
            text = f"({text}.c)d"
        ast = parse(text)
        assert _depth(pretty_print(ast)) == 100 and parse(pretty_print(ast)) == ast

    @pytest.mark.parametrize(
        "text, pos",
        [("(" * 101 + "ab" + ")" * 101, 100), ("a" + "(b" * 101 + ")" * 101, 201)],
    )
    def test_one_level_more_is_refused_at_its_parenthesis(self, text, pos):
        with pytest.raises(ParseError, match="more than 100 nested parentheses") as err:
            parse(text)
        assert err.value.pos == pos

    def test_the_printer_nests_no_deeper_than_any_text_of_the_tree(self):
        rng = random.Random(11)
        for _ in range(300):
            ast = random_ast(rng)
            for _ in range(rng.randrange(8)):
                parts = [random_ast(rng, 2) for _ in range(rng.randint(1, 3))]
                parts.insert(rng.randrange(len(parts) + 1), ast)
                ast = Chain(tuple(parts))
            text = _some_text(ast, rng)
            printed = pretty_print(ast)
            assert parse(text) == parse(printed) == ast
            assert _depth(printed) <= _depth(text)


def _walkthrough_env(rng):
    while True:
        a = Point(*(rng.randint(-9, 9) for _ in range(3)))
        b = Point(*(rng.randint(-9, 9) for _ in range(3)))
        c = Point(*(rng.randint(-9, 9) for _ in range(3)))
        d = Point(*(rng.randint(-9, 9) for _ in range(3)))
        A = Line(*(rng.randint(-9, 9) for _ in range(3)))
        B = Line(*(rng.randint(-9, 9) for _ in range(3)))
        if any(o.is_zero for o in (a, b, c, d, A, B)):
            continue
        return {"a": a, "b": b, "c": c, "d": d, "A": A, "B": B}


class TestNumericEvaluation:
    def test_walkthrough_generic_gives_nonzero_line(self):
        rng = random.Random(5)
        ast = parse("abAcBd")
        for _ in range(50):
            env = _walkthrough_env(rng)
            value = eval_numeric(ast, Environment(env))
            assert isinstance(value, Line)
            if not value.is_zero:
                break
        else:
            pytest.fail("no nonzero instance found")

    def test_walkthrough_degenerate_cases_give_zero_line(self):
        # the five degeneracies: a=b, ab=A, abA=c, abAc=B, abAcB=d
        rng = random.Random(11)
        ast = parse("abAcBd")
        base = _walkthrough_env(rng)
        a, b, A, c, B = base["a"], base["b"], base["A"], base["c"], base["B"]

        cases = []
        cases.append({**base, "b": scale(3, a)})
        cases.append({**base, "A": scale(-2, join(a, b))})
        cases.append({**base, "c": meet(join(a, b), A)})
        abA = meet(join(a, b), A)
        cases.append({**base, "B": scale(5, join(abA, c))})
        abAc = join(abA, c)
        cases.append({**base, "d": meet(abAc, B)})
        for env in cases:
            value = eval_numeric(ast, Environment(env))
            assert value == ZERO_LINE

    def test_bracket_of_collinear_points(self):
        p, q = Point(1, 0, 2), Point(0, 1, 1)
        r = Point(*(pc + qc for pc, qc in zip(p.coords, q.coords)))
        value = eval_numeric(parse("(p.q.r)"), Environment({"p": p, "q": q, "r": r}))
        assert value == 0

    def test_chain_fold_matches_scaled_bracket(self):
        rng = random.Random(3)
        for _ in range(25):
            env = _walkthrough_env(rng)
            p, q, r, s = env["a"], env["b"], env["c"], env["d"]
            value = eval_numeric(
                parse("pqrs"), Environment({"p": p, "q": q, "r": r, "s": s})
            )
            assert value == scale(bracket(p, q, r), s)

    def test_group_of_three_bracket_class_permutation_invariant(self):
        rng = random.Random(9)
        env = _walkthrough_env(rng)
        L1, L2 = env["A"], env["B"]
        L3 = Line(*(rng.randint(-9, 9) for _ in range(3)))
        bindings = {"A": L1, "B": L2, "C": L3}
        base = eval_numeric(parse("(A.B.C)"), Environment(bindings))
        import itertools

        for perm in itertools.permutations("ABC"):
            text = f"({perm[0]}.{perm[1]}.{perm[2]})"
            value = eval_numeric(parse(text), Environment(bindings))
            assert (value == 0) == (base == 0)

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError):
            eval_numeric(parse("ab"), Environment({"a": Point(1, 0, 0)}))

    def test_unbound_x(self):
        with pytest.raises(UnboundNameError):
            eval_numeric(parse("xa"), Environment({"a": Point(1, 0, 0)}))

    def test_scalar_scalar_error(self):
        env = Environment(
            {"p": Point(1, 0, 0), "q": Point(0, 1, 0), "r": Point(0, 0, 1),
             "a": Point(1, 1, 0), "b": Point(1, 0, 1), "c": Point(0, 1, 1)}
        )
        with pytest.raises(KindError):
            eval_numeric(parse("(p.q.r)(a.b.c)"), env)

    def test_environment_kind_validation(self):
        with pytest.raises(KindError):
            Environment({"a": Line(1, 0, 0)})
        with pytest.raises(KindError):
            Environment({"A": Point(1, 0, 0)})
        with pytest.raises(KindError):
            Environment({}, x=Line(1, 0, 0))

    def test_x_binds_only_through_the_keyword(self):
        with pytest.raises(ValueError, match="x="):
            Environment({"x": Point(1, 0, 0)})
        with pytest.raises(ValueError, match="x="):
            Environment({"a": Point(1, 0, 0), "x": Point(0, 1, 0)}, x=Point(0, 0, 1))

    @pytest.mark.parametrize(
        "text, free",
        [("ab.cd", False), ("x", True), ("xaAbBcx", True), ("ab(c.(d.x))", True), ("(A.B.C)p", False)],
    )
    def test_contains_x(self, text, free):
        assert contains_x(parse(text)) is free


def reference_symbolic(e, env):
    """(kind, value) by folding PolyVector operands through poly_cross,
    poly_dot and poly_scale."""
    if e == Name("x"):
        return "point", PolyVector.variable()
    if isinstance(e, Name):
        value = env.lookup(e.name)
        return kind_of(value), PolyVector.constant(value)
    kind, acc = reference_symbolic(e.parts[0], env)
    for part in e.parts[1:]:
        kind2, value = reference_symbolic(part, env)
        if kind == kind2 == "scalar":
            raise KindError("scalar*scalar")
        if kind == kind2:
            kind, acc = ("line" if kind == "point" else "point"), poly_cross(acc, value)
        elif kind == "scalar":
            kind, acc = kind2, poly_scale(acc, value)
        elif kind2 == "scalar":
            acc = poly_scale(value, acc)
        else:
            kind, acc = "scalar", poly_dot(acc, value)
    return kind, acc


def assert_same_expansion(got, want):
    """Exact equality with equal degrees, entrywise for a PolyVector (zero
    forms compare equal whatever their degree)."""
    if isinstance(want, HomPoly):
        assert isinstance(got, HomPoly)
        pairs = [(got, want)]
    else:
        assert isinstance(got, PolyVector)
        pairs = list(zip(got.entries, want.entries))
    for g, w in pairs:
        assert g == w and g.degree == w.degree


class TestSymbolicEvaluation:
    def test_matches_reference_fold_on_typed_fuzz(self):
        rng = random.Random(909)
        for _ in range(500):
            ast, kind = typed_random_expr(rng)
            env = random_environment(rng)
            ref_kind, want = reference_symbolic(ast, env)
            assert ref_kind == kind
            assert_same_expansion(eval_symbolic(ast, env), want)

    @pytest.mark.parametrize(
        "text", ["xa", "xaAa_1", "(xaAa_1.xbBkCb_1.xc)", "xaAbBcx", "ab.cd", "(a.b.c)x", "Ax"]
    )
    def test_zero_point_binding(self, text):
        env = Environment(
            {"a": Point(0, 0, 0), "b": Point(1, 2, 3), "c": Point(2, -1, 5), "d": Point(1, 0, 4),
             "a_1": Point(3, 1, 1), "b_1": Point(1, 1, 2), "k": Point(2, 3, 1),
             "A": Line(1, -1, 2), "B": Line(0, 1, 1), "C": Line(2, 0, -1)}
        )
        ast = parse(text)
        got = eval_symbolic(ast, env)
        assert_same_expansion(got, reference_symbolic(ast, env)[1])
        if "a" in text.replace("a_1", ""):
            assert got.is_zero and got.degree == text.count("x")

    def test_fraction_coordinates(self):
        # coordinates as a rational scene holds them
        env = Environment(
            {"a": Point(1, Fraction(-25, 6), Fraction(-43, 15)),
             "b": Point(1, Fraction(-11, 3), Fraction(2, 15)),
             "c": Point(1, Fraction(-13, 6), Fraction(-8, 15)),
             "A": Line(Fraction(2, 3), 1, Fraction(-1, 4)),
             "B": Line(3, Fraction(-5, 2), 2)}
        )
        for text in ("xaAbBcx", "xab.cx", "(x.a.b)", "xaAbBc"):
            ast = parse(text)
            got = eval_symbolic(ast, env)
            assert_same_expansion(got, reference_symbolic(ast, env)[1])
            assert not got.is_zero

    def test_join_of_x_with_itself_is_zero_of_degree_two(self):
        vec = eval_symbolic(parse("xx"), Environment())
        assert isinstance(vec, PolyVector) and vec.is_zero
        assert [e.degree for e in vec.entries] == [2, 2, 2]
        f = eval_symbolic(parse("(xx.x)"), Environment())
        assert isinstance(f, HomPoly) and f.is_zero and f.degree == 3

    def test_scalar_factor_containing_x(self):
        p, q = Point(1, 2, 3), Point(0, 1, 1)
        env = Environment({"p": p, "q": q})
        ast = parse("(x.p.q)x")
        vec = eval_symbolic(ast, env)
        assert vec.degree == 2
        assert_same_expansion(vec, reference_symbolic(ast, env)[1])
        x = Point(2, -1, 5)
        s = bracket(x, p, q)
        assert tuple(evaluate(f, x) for f in vec.entries) == tuple(s * c for c in x.coords)

    def test_terms_in_monomial_order(self):
        env = Environment({"a": Point(1, 2, 3), "b": Point(2, -1, 1), "A": Line(1, 1, -2)})
        f = eval_symbolic(parse("xaAbx"), env)
        assert list(f.coeffs) == [m for m in monomials(2) if m in f.coeffs]
        for entry in eval_symbolic(parse("xaAx"), env).entries:
            assert list(entry.coeffs) == [m for m in monomials(2) if m in entry.coeffs]

    def test_scalar_scalar_error(self):
        env = Environment({"p": Point(1, 0, 0), "q": Point(0, 1, 0)})
        with pytest.raises(KindError):
            eval_symbolic(parse("(x.p.q)(x.q.p)"), env)

    def test_line_equation_from_two_points(self):
        p, q = Point(1, 2, 3), Point(0, 1, 1)
        f = eval_symbolic(parse("(x.p.q)"), Environment({"p": p, "q": q}))
        assert isinstance(f, HomPoly) and f.degree == 1
        expected = join(p, q)
        coeffs = [f.coeffs.get(m, 0) for m in monomials(1)]
        assert projectively_equal(Line(*coeffs), expected)

    def test_conic_expression_is_degree_two(self):
        env = Environment(
            {"a": Point(1, 2, 3), "b": Point(1, -1, 4), "c": Point(1, 5, -2),
             "A": Line(2, 1, 1), "B": Line(3, -1, 2)}
        )
        f = eval_symbolic(parse("xaAbBcx"), env)
        assert isinstance(f, HomPoly) and f.degree == 2 and not f.is_zero

    def test_vector_valued_expansion(self):
        env = Environment({"a": Point(1, 0, 0)})
        vec = eval_symbolic(parse("xa"), env)
        assert isinstance(vec, PolyVector)

    def test_commutation_on_typed_fuzz(self):
        rng = random.Random(2024)
        for _ in range(200):
            ast, kind = typed_random_expr(rng)
            env = random_environment(rng)
            numeric = eval_numeric(ast, env)
            symbolic = eval_symbolic(ast, env)
            if kind == "scalar":
                assert evaluate(symbolic, env.x) == numeric
            else:
                assert tuple(evaluate(f, env.x) for f in symbolic.entries) == numeric.coords
