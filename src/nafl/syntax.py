"""Propositional formula trees, the plain-text grammar, and the printer.

Surface syntax (ASCII): ``~`` negation, ``&`` conjunction, ``|`` disjunction,
``->`` implication (right associative), ``<->`` biconditional. Precedence from
tightest to loosest: ``~``, ``&``, ``|``, ``->``, ``<->``; parentheses
override. Atom names match ``[A-Za-z_][A-Za-z0-9_]*``.

A formula nests at most ``MAX_DEPTH`` (100) levels deep: every parenthesis
pair, negation and binary operator around an atom is one level, so
``((A))``, ``~~A`` and ``A & B & C`` are each two levels deep. Deeper text
is a ParseError. The cap keeps the parser and every recursive pass over the
tree (printer, normal form, evaluation, truth tables) far inside Python's
recursion limit.

``~~A`` stays structurally distinct from ``A``: double negation is simplified
semantically, never by rewriting the tree.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .errors import ParseError, UnknownTokenError
from .record import frozen_delattr, frozen_setattr


class Formula:
    """Base class; concrete nodes are the six subclasses below.

    Nodes are immutable values: equal when of the same class with equal
    fields, hashed from their fields, printed as constructor calls. Nothing
    is cached per node.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return format_formula(self)


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Not(Formula):
    __slots__ = ("operand",)
    __match_args__ = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", operand)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.operand,) == (other.operand,)  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.operand,))


class _Binary(Formula):
    """The fields and value semantics the four connectives share."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


def atoms_of(formula: Formula) -> frozenset[str]:
    """Set of atom names occurring in the formula."""
    names: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack.append(node.left)   # type: ignore[attr-defined]
            stack.append(node.right)  # type: ignore[attr-defined]
    return frozenset(names)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<atom>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<op>[~&|()])"
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise UnknownTokenError(
                f"unknown token {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "ws":
            for i, ch in enumerate(value):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        elif kind == "op":
            yield _Token(value, value, line, pos - line_start + 1)
        else:
            yield _Token(kind, value, line, pos - line_start + 1)
        pos = match.end()
    yield _Token("eof", "", line, len(text) - line_start + 1)


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------


# Deepest nesting the parser accepts; see the module docstring.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each production leaves its tree's depth in ``depth``."""

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0
        self.open = 0  # parentheses, negations and arrows not yet closed

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            tok = self.current
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.column)
        return self.advance()

    def nest(self, depth: int, tok: _Token) -> int:
        """One level below ``depth``, or ParseError past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(
                f"formula nests deeper than {MAX_DEPTH} levels", tok.line, tok.column
            )
        return depth + 1

    def inner(self, tok: _Token, production) -> Formula:
        """Recurse into ``production``; the open count bounds the stack."""
        self.nest(self.open, tok)
        self.open += 1
        node = production()
        self.open -= 1
        return node

    def parse(self) -> Formula:
        formula = self.bicond()
        if self.current.kind != "eof":
            tok = self.current
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
        return formula

    def bicond(self) -> Formula:
        node = self.impl()
        while self.current.kind == "iff":
            depth, tok = self.depth, self.advance()
            node = Iff(node, self.impl())
            self.depth = self.nest(max(depth, self.depth), tok)
        return node

    def impl(self) -> Formula:
        node = self.disj()
        if self.current.kind == "implies":
            depth, tok = self.depth, self.advance()
            node = Implies(node, self.inner(tok, self.impl))
            self.depth = self.nest(max(depth, self.depth), tok)
        return node

    def disj(self) -> Formula:
        node = self.conj()
        while self.current.kind == "|":
            depth, tok = self.depth, self.advance()
            node = Or(node, self.conj())
            self.depth = self.nest(max(depth, self.depth), tok)
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.current.kind == "&":
            depth, tok = self.depth, self.advance()
            node = And(node, self.unary())
            self.depth = self.nest(max(depth, self.depth), tok)
        return node

    def unary(self) -> Formula:
        tok = self.current
        if tok.kind == "~":
            self.advance()
            node = Not(self.inner(tok, self.unary))
            self.depth = self.nest(self.depth, tok)
            return node
        if tok.kind == "atom":
            self.advance()
            self.depth = 0
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.inner(tok, self.bicond)
            self.expect(")")
            self.depth = self.nest(self.depth, tok)
            return node
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", tok.line, tok.column)


def parse_formula(text: str) -> Formula:
    """Parse formula text into its unique tree.

    Raises ParseError (with line/column) on malformed input and
    UnknownTokenError on characters outside the grammar.
    """
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Printer (minimal parentheses; parse(format_formula(f)) == f)
# --------------------------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6}


def _render(node: Formula, min_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Atom):
        text = node.name
    elif isinstance(node, Not):
        text = "~" + _render(node.operand, 5)
    elif isinstance(node, And):
        text = _render(node.left, 4) + " & " + _render(node.right, 5)
    elif isinstance(node, Or):
        text = _render(node.left, 3) + " | " + _render(node.right, 4)
    elif isinstance(node, Implies):
        # right associative: the right child may be another implication
        text = _render(node.left, 3) + " -> " + _render(node.right, 2)
    else:
        text = _render(node.left, 1) + " <-> " + _render(node.right, 2)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def format_formula(formula: Formula) -> str:
    return _render(formula, 0)


# --------------------------------------------------------------------------
# Negation normal form (used by the superposed-model evaluator)
# --------------------------------------------------------------------------


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Push negations down to literals, expanding -> and <-> on the way."""
    if isinstance(formula, Atom):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return to_nnf(formula.operand, not negate)
    if isinstance(formula, And):
        if negate:
            return Or(to_nnf(formula.left, True), to_nnf(formula.right, True))
        return And(to_nnf(formula.left, False), to_nnf(formula.right, False))
    if isinstance(formula, Or):
        if negate:
            return And(to_nnf(formula.left, True), to_nnf(formula.right, True))
        return Or(to_nnf(formula.left, False), to_nnf(formula.right, False))
    if isinstance(formula, Implies):
        if negate:
            return And(to_nnf(formula.left, False), to_nnf(formula.right, True))
        return Or(to_nnf(formula.left, True), to_nnf(formula.right, False))
    assert isinstance(formula, Iff)
    left, right = formula.left, formula.right
    if negate:
        return Or(
            And(to_nnf(left, False), to_nnf(right, True)),
            And(to_nnf(left, True), to_nnf(right, False)),
        )
    return And(
        Or(to_nnf(left, True), to_nnf(right, False)),
        Or(to_nnf(left, False), to_nnf(right, True)),
    )
