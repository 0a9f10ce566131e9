"""Parser and evaluators for incidence-chain notation.

Grammar, in ASCII (whitespace is ignored between tokens)::

    statement := group [ "=0" ]
    group     := chain { "." chain }
    chain     := item { item }
    item      := NAME | "(" group ")"     (nested at most 100 deep)
    NAME      := letter [ "_" digit { digit } ]

where a letter is one of A-Z and a-z and a digit one of 0-9; any other
character is refused where it stands.  :func:`name_kind` owns the names:
lowercase names denote points, uppercase names denote lines, and bare
``x`` is the reserved name of the point under test.  Scene files bind
exactly the names that :func:`name_kind` gives a kind.  A chain folds its
items left to right through the typed product (join, meet, incidence
scalar, scaling).  A period only groups: it closes the chain before it as
one item, so ``pq.rs`` is ``(pq)(rs)``, the meet of the joins pq and rs,
while ``pqrs`` would scale s by the bracket (p.q.r).  Both parse to the
same tree, whose nodes are a :class:`Name` or a :class:`Chain`.

Evaluation comes in two flavours: :func:`eval_numeric` with every name
bound to a concrete point or line, and :func:`eval_symbolic` with ``x``
left free, which expands the expression into a homogeneous polynomial (or
a triple of them) in the coordinates of x by the same fold through
:mod:`grassmann.poly`'s ``poly_cross``, ``poly_dot`` and ``poly_scale``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
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
    "name_kind",
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


# ---------------------------------------------------------------------------
# names and parsing

# one letter with an optional subscript of ASCII digits
_NAME = r"[A-Za-z](?:_[0-9]+)?"
_NAME_RE = re.compile(_NAME)
# after optional whitespace: a name, an operator, or any other character,
# which is refused
_TOKEN = re.compile(rf"\s*(?:(?P<name>{_NAME})|(?P<op>[.()]|=0)|(?P<bad>\S))")
# the deepest parenthesis nesting; the parser, folds and printer recurse per level
_MAX_DEPTH = 100


def name_kind(name: str) -> str | None:
    """'point' for a lowercase name other than x, 'line' for an uppercase
    name, and None for x or for text that is no name."""
    if name == "x" or not _NAME_RE.fullmatch(name):
        return None
    return "point" if name[0].islower() else "line"


def parse_statement(text: str) -> tuple[Expr, bool]:
    """Parse a chain expression with an optional trailing '=0'.

    Returns the AST and a flag telling whether the input was written as an
    equation.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m['bad']!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    i = 0

    def group(depth: int) -> Expr:
        nonlocal i
        parts = [chain(depth)]
        while tokens[i][1] == ".":
            i += 1
            parts.append(chain(depth))
        return parts[0] if len(parts) == 1 else Chain(tuple(parts))

    def chain(depth: int) -> Expr:
        nonlocal i
        atoms = []
        while True:
            kind, tok, pos = tokens[i]
            if kind == "name":
                i += 1
                atoms.append(Name(tok))
            elif tok == "(":
                if depth == _MAX_DEPTH:
                    raise ParseError(f"more than {_MAX_DEPTH} nested parentheses", pos)
                i += 1
                atoms.append(group(depth + 1))
                kind, tok, pos = tokens[i]
                if kind == "end":
                    raise ParseError("unexpected end of input", pos)
                if tok != ")":
                    raise ParseError("expected ')'", pos)
                i += 1
            elif not atoms:
                raise ParseError("expected an operand", pos)
            else:
                return atoms[0] if len(atoms) == 1 else Chain(tuple(atoms))

    expr = group(0)
    is_equation = tokens[i][1] == "=0"
    i += is_equation
    kind, tok, pos = tokens[i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return expr, is_equation


def parse(text: str) -> Expr:
    return parse_statement(text)[0]


def pretty_print(e: Expr) -> str:
    """Render an AST back to source text that parses back to an identical
    tree, and nests no deeper than any other text of that tree."""
    return _pretty(e)[0][0]


def _pretty(e: Expr) -> tuple:
    """(text, parenthesis depth) of e as a group, as one item of a group and
    as one item of a chain.  A chain of chains joins its parts' items with
    periods; as an item of a group it goes in parentheses, unless its parts
    side by side nest less."""
    if isinstance(e, Name):
        return ((e.name, 0),) * 3
    _, items, atoms = zip(*map(_pretty, e.parts))
    side = "".join(t for t, _ in atoms), max(d for _, d in atoms)
    group = side if side[1] == 0 else (".".join(t for t, _ in items), max(d for _, d in items))
    wrapped = f"({group[0]})", group[1] + 1
    return group, min(wrapped, side, key=lambda form: form[1]), wrapped


# ---------------------------------------------------------------------------
# environments


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
            kind = name_kind(name)
            if kind is None:
                raise KindError(f"{name!r} is not a name")
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


def _fold(e: Expr, leaf, product):
    """The one walk of the tree: each name through ``leaf``, and each chain
    as a left fold of its items' values through ``product``."""
    if isinstance(e, Name):
        return leaf(e.name)
    if isinstance(e, Chain):
        return reduce(product, (_fold(part, leaf, product) for part in e.parts))
    raise TypeError(f"not an expression node: {e!r}")


def contains_x(e: Expr) -> bool:
    """Whether the point x occurs in the expression."""
    return _fold(e, lambda name: name == "x", lambda u, v: u or v)


def eval_numeric(e: Expr, env: Environment) -> GeomObject:
    """Left-to-right fold through the typed product, with exact arithmetic.

    Zero objects propagate, so a degenerate intermediate construction turns
    the whole expression into the appropriate zero object or zero scalar.
    """
    return _fold(e, env.lookup, core.product)


# a zero object of each kind, so that core.product decides the kind of
# every symbolic product
_ZERO_OF_KIND = {"point": core.ZERO_POINT, "line": core.ZERO_LINE, "scalar": 0}


def _symbolic_product(u: tuple, v: tuple) -> tuple:
    """The typed product of two (kind, value) pairs through poly_cross,
    poly_dot and poly_scale."""
    (kind, acc), (kind2, value) = u, v
    product = core.kind_of(core.product(_ZERO_OF_KIND[kind], _ZERO_OF_KIND[kind2]))
    if kind == "scalar":
        return product, poly_scale(acc, value)
    if kind2 == "scalar":
        return product, poly_scale(value, acc)
    if product == "scalar":
        return product, poly_dot(acc, value)
    return product, poly_cross(acc, value)


def eval_symbolic(e: Expr, env: Environment):
    """Expand with x left free.

    Returns a :class:`~grassmann.poly.HomPoly` when the expression is
    scalar-valued (the usual case for curve equations) and a
    :class:`PolyVector` otherwise.  The degree is the number of x factors,
    also when the result is zero; ``coeffs`` lists the terms in
    :func:`~grassmann.poly.monomials` order.
    """

    def leaf(name: str) -> tuple:
        if name == "x":
            return "point", PolyVector.variable()
        value = env.lookup(name)
        return core.kind_of(value), PolyVector.constant(value)

    return _fold(e, leaf, _symbolic_product)[1]
