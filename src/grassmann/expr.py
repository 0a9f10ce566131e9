"""Parser and evaluators for incidence-chain notation.

Grammar (whitespace is ignored everywhere)::

    statement := group [ "=" "0" ]
    group     := chain { "." chain }
    chain     := atom { atom }
    atom      := NAME | "(" group ")"

A NAME is one letter with an optional ``_<digits>`` subscript.  Lowercase
names denote points, uppercase names denote lines, and bare ``x`` is the
reserved name of the point under test.  A chain folds its items left to
right through the typed product (join, meet, incidence scalar, scaling).
A period only groups: it closes the chain before it as one item, so
``pq.rs`` is ``(pq)(rs)``, the meet of the joins pq and rs, while
``pqrs`` would scale s by the bracket (p.q.r).  Both parse to the same
tree, whose nodes are a :class:`Name` or a :class:`Chain`.

Evaluation comes in two flavours: :func:`eval_numeric` with every name
bound to a concrete point or line, and :func:`eval_symbolic` with ``x``
left free, which expands the expression into a homogeneous polynomial (or
a triple of them) in the coordinates of x by the same fold through
:mod:`grassmann.poly`'s ``poly_cross``, ``poly_dot`` and ``poly_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from . import core
from .core import GeomObject, KindError, Point
from .poly import PolyVector, poly_cross, poly_dot, poly_scale

__all__ = [
    "Name",
    "Chain",
    "Expr",
    "ParseError",
    "UnboundNameError",
    "Environment",
    "parse",
    "parse_statement",
    "pretty_print",
    "contains_x",
    "eval_numeric",
    "eval_symbolic",
]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class UnboundNameError(KeyError):
    pass


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Chain:
    parts: tuple


Expr = Union[Name, Chain]

_X = Name("x")


# ---------------------------------------------------------------------------
# lexing / parsing


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ".()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "=":
            if text[i + 1 : i + 2] != "0":
                raise ParseError("expected '=0'", i)
            tokens.append(("eq0", "=0", i))
            i += 2
            continue
        if ch.isalpha():
            start = i
            i += 1
            if i < n and text[i] == "_":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("subscript needs digits", i)
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, text_len: int):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        self.pos += 1
        return tok

    def parse_group(self) -> Expr:
        parts = [self.parse_chain()]
        while (tok := self.peek()) is not None and tok[0] == ".":
            self.next()
            parts.append(self.parse_chain())
        if len(parts) == 1:
            return parts[0]
        return Chain(tuple(parts))

    def parse_chain(self) -> Expr:
        atoms = []
        while (tok := self.peek()) is not None and tok[0] in ("name", "("):
            atoms.append(self.parse_atom())
        if not atoms:
            tok = self.peek()
            pos = tok[2] if tok else self.text_len
            raise ParseError("expected an operand", pos)
        if len(atoms) == 1:
            return atoms[0]
        return Chain(tuple(atoms))

    def parse_atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "name":
            return Name(text)
        if kind == "(":
            inner = self.parse_group()
            tok = self.next()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2])
            return inner
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_statement(text: str) -> tuple[Expr, bool]:
    """Parse a chain expression with an optional trailing '=0'.

    Returns the AST and a flag telling whether the input was written as an
    equation.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, len(text))
    expr = parser.parse_group()
    is_equation = False
    tok = parser.peek()
    if tok is not None and tok[0] == "eq0":
        parser.next()
        is_equation = True
        tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return expr, is_equation


def parse(text: str) -> Expr:
    return parse_statement(text)[0]


def pretty_print(e: Expr) -> str:
    """Render an AST back to source text; parses back to an identical tree."""
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Chain):
        texts = [pretty_print(part) for part in e.parts]
        if not any(isinstance(part, Chain) for part in e.parts):
            return "".join(texts)
        return ".".join(f"({text})" if "." in text else text for text in texts)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# environments


def _expected_kind(name: str) -> str:
    return "point" if name[0].islower() else "line"


class Environment:
    """Bindings for operand names; lowercase bind points, uppercase lines.

    x, the point under test, is bound only through ``x=``, for numeric
    evaluation; ``lookup("x")`` returns that binding.
    """

    def __init__(self, bindings: Mapping[str, GeomObject] | None = None, x: Point | None = None):
        self._bindings: dict[str, GeomObject] = {}
        for name, value in (bindings or {}).items():
            if name == "x":
                raise ValueError("x is the variable point: bind it with x=, not as a name")
            kind = _expected_kind(name)
            if core.kind_of(value) != kind:
                raise KindError(f"{name!r} must be bound to a {kind}")
            self._bindings[name] = value
        if x is not None and not isinstance(x, Point):
            raise KindError("x must be bound to a point")
        self.x = x

    def lookup(self, name: str) -> GeomObject:
        value = self.x if name == "x" else self._bindings.get(name)
        if value is None:
            raise UnboundNameError(name)
        return value


# ---------------------------------------------------------------------------
# evaluation


def contains_x(e: Expr) -> bool:
    """Whether the point x occurs in the expression."""
    if isinstance(e, Chain):
        return any(contains_x(p) for p in e.parts)
    return e == _X


def eval_numeric(e: Expr, env: Environment) -> GeomObject:
    """Left-to-right fold through the typed product, with exact arithmetic.

    Zero objects propagate, so a degenerate intermediate construction turns
    the whole expression into the appropriate zero object or zero scalar.
    """
    if isinstance(e, Name):
        return env.lookup(e.name)
    if isinstance(e, Chain):
        value = eval_numeric(e.parts[0], env)
        for part in e.parts[1:]:
            value = core.product(value, eval_numeric(part, env))
        return value
    raise TypeError(f"not an expression node: {e!r}")


# a zero object of each kind, so that core.product decides the kind of
# every symbolic product
_ZERO_OF_KIND = {"point": core.ZERO_POINT, "line": core.ZERO_LINE, "scalar": 0}


def _eval_sym(e: Expr, env: Environment) -> tuple:
    """(kind, value): a left fold through poly_cross, poly_dot and poly_scale."""
    if e == _X:
        return "point", PolyVector.variable()
    if isinstance(e, Name):
        value = env.lookup(e.name)
        return core.kind_of(value), PolyVector.constant(value)
    if isinstance(e, Chain):
        kind, acc = _eval_sym(e.parts[0], env)
        for part in e.parts[1:]:
            kind2, value = _eval_sym(part, env)
            product = core.kind_of(core.product(_ZERO_OF_KIND[kind], _ZERO_OF_KIND[kind2]))
            if kind == "scalar":
                acc = poly_scale(acc, value)
            elif kind2 == "scalar":
                acc = poly_scale(value, acc)
            elif product == "scalar":
                acc = poly_dot(acc, value)
            else:
                acc = poly_cross(acc, value)
            kind = product
        return kind, acc
    raise TypeError(f"not an expression node: {e!r}")


def eval_symbolic(e: Expr, env: Environment):
    """Expand with x left free.

    Returns a :class:`~grassmann.poly.HomPoly` when the expression is
    scalar-valued (the usual case for curve equations) and a
    :class:`PolyVector` otherwise.  The degree is the number of x factors,
    also when the result is zero; ``coeffs`` lists the terms in
    :func:`~grassmann.poly.monomials` order.
    """
    return _eval_sym(e, env)[1]
