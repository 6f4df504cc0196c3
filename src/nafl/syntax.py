"""Propositional formula trees, the formula and input-line grammars, and the printer.

Surface syntax (ASCII): ``~`` negation, ``&`` conjunction, ``|`` disjunction,
``->`` implication (right associative), ``<->`` biconditional. Precedence from
tightest to loosest: ``~``, ``&``, ``|``, ``->``, ``<->``; parentheses
override. Atom names match ``NAME``, ``[A-Za-z_][A-Za-z0-9_]*``, which the
file readers and ``Theory`` check; ``Atom`` itself takes any string.

A formula nests at most ``MAX_DEPTH`` (100) levels deep: every parenthesis
pair, negation and binary operator around an atom is one level, so
``((A))``, ``~~A`` and ``A & B & C`` are each two levels deep. Deeper text
is a ParseError. The cap keeps the parser and every recursive pass over the
tree (printer, truth tables, superposed evaluation) far inside Python's
recursion limit.

Reading is one scan and one precedence-climbing loop (Pratt, "Top down
operator precedence", POPL 1973):

- The scan is one ``findall`` of ``_SCAN`` over the whole text. It skips
  whitespace and yields plain strings; a non-space character outside the
  grammar becomes a token of its own, so the scan never stops early.
- ``_BINARY`` gives each binary operator its binding power: ``&`` 4, ``|`` 3,
  ``->`` 2, ``<->`` 1. ``->`` reads its right side at its own power, so it
  groups to the right; the other three loop, so they group to the left.
- Tokens carry no position. Only an error scans the text again, to find the
  line and column of its token. A token outside the grammar is reported in
  preference to any other error, as if the scan had stopped at it.

``~~A`` stays structurally distinct from ``A``: double negation is simplified
semantically, never by rewriting the tree.
"""

from __future__ import annotations

import re

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
# Scanner
# --------------------------------------------------------------------------

# The one atom-name rule, shared by both file readers and Theory.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
is_name = re.compile(NAME).fullmatch

# One match per token: an atom, an arrow, a one-character operator, or any
# other non-space character, which is a token outside the grammar.
_SCAN = re.compile(NAME + r"|<->|->|[~&|()]|\S")
_ATOM_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The one-character tokens of the grammar; every other one is unknown.
_KNOWN_CHARS = _ATOM_START | frozenset("~&|()")


# --------------------------------------------------------------------------
# Precedence-climbing parser
# --------------------------------------------------------------------------

# Binding power and node class of each binary operator, tightest first.
_BINARY = {"&": (4, And), "|": (3, Or), "->": (2, Implies), "<->": (1, Iff)}

# Deepest nesting the parser accepts; see the module docstring.
MAX_DEPTH = 100


class _Parser:
    """Precedence climbing over the scanned tokens, ``""`` ending the list.

    ``index`` is the next token, ``depth`` the depth of the subtree just
    parsed, and ``open`` the number of parentheses, negations and arrows
    whose operand is being parsed, which bounds the recursion.
    """

    __slots__ = ("text", "tokens", "index", "depth", "open")

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _SCAN.findall(text)
        self.tokens.append("")
        self.index = self.depth = self.open = 0

    def error(self, k: int, message: str) -> ParseError:
        """The error at token ``k``, or at the first token outside the grammar.

        The parser accepts no token outside the grammar, so text that holds
        one always ends here, and reporting that token first gives the error
        of a scan that stops at it. Line and column are found only now.
        """
        kind = ParseError
        for j, token in enumerate(self.tokens):
            if len(token) == 1 and token not in _KNOWN_CHARS:
                k, message, kind = j, f"unknown token {token!r}", UnknownTokenError
                break
        text = self.text
        offset = len(text)  # the end of input
        for j, match in enumerate(_SCAN.finditer(text)):
            if j == k:
                offset = match.start()
                break
        line = text.count("\n", 0, offset) + 1
        return kind(message, line, offset - text.rfind("\n", 0, offset))

    def shown(self, k: int) -> str:
        return self.tokens[k] or "end of input"

    def nest(self, depth: int, k: int) -> int:
        """One level below ``depth``, or ParseError at token ``k`` past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise self.error(k, f"formula nests deeper than {MAX_DEPTH} levels")
        return depth + 1

    def inner(self, k: int, production, *args) -> Formula:
        """``production(*args)`` inside the construct opened at token ``k``."""
        self.nest(self.open, k)
        self.open += 1
        node = production(*args)
        self.open -= 1
        return node

    def parse(self) -> Formula:
        node = self.binary(1)
        trailing = self.tokens[self.index]
        if trailing:
            raise self.error(self.index, f"unexpected trailing {trailing!r}")
        return node

    def binary(self, level: int) -> Formula:
        """Operands joined by the operators that bind at ``level`` or tighter."""
        node = self.unary()
        tokens = self.tokens
        while True:
            k = self.index
            entry = _BINARY.get(tokens[k])
            if entry is None or entry[0] < level:
                return node
            power, build = entry
            self.index = k + 1
            depth = self.depth
            if build is Implies:  # right associative: the right side nests
                right = self.inner(k, self.binary, power)
            else:
                right = self.binary(power + 1)
            node = build(node, right)
            self.depth = self.nest(max(depth, self.depth), k)

    def unary(self) -> Formula:
        """An atom, a negation or a parenthesised formula."""
        k = self.index
        token = self.tokens[k]
        self.index = k + 1
        if token and token[0] in _ATOM_START:
            self.depth = 0
            return Atom(token)
        if token == "~":
            node = Not(self.inner(k, self.unary))
            self.depth = self.nest(self.depth, k)
            return node
        if token == "(":
            node = self.inner(k, self.binary, 1)
            if self.tokens[self.index] != ")":
                raise self.error(self.index, f"expected ')', found {self.shown(self.index)!r}")
            self.index += 1
            self.depth = self.nest(self.depth, k)
            return node
        raise self.error(k, f"expected a formula, found {self.shown(k)!r}")


def parse_formula(text: str) -> Formula:
    """Parse formula text into its unique tree.

    Raises ParseError (with line/column) on malformed input and
    UnknownTokenError on characters outside the grammar.
    """
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Line grammar of theory files, scenario files and REPL commands
# --------------------------------------------------------------------------


# The part of a line before its comment. ``#`` starts a comment unless it
# sits inside a closed pair of double quotes; a ``"`` with no closing partner
# is an ordinary character, which the grammar after it then rejects.
_CODE = re.compile(r'[^#"]*(?:(?:"[^"]*"|")[^#"]*)*')


def split_line(line: str, column: int = 1) -> tuple[str, int, str, int] | None:
    """The first word of a line, its column, the rest, and the rest's column.

    Columns are 1-based, counted from ``column``, the column of the line's
    first character, so the rest can be split again in place. ``#`` outside
    a quoted ``"..."`` starts a comment and any run of whitespace separates
    words, so a keyword matches only as a whole word. None for a line that
    is blank once its comment is cut.
    """
    text = _CODE.match(line)[0]
    parts = text.split(None, 1)
    if not parts:
        return None
    rest = parts[1] if len(parts) > 1 else ""
    return parts[0], column + text.index(parts[0]), rest.rstrip(), column + len(text) - len(rest)


def parse_formula_at(text: str, line: int, column: int, kind: type | None = None) -> Formula:
    """parse_formula on text that starts at ``column`` of input line ``line``.

    An error reports its position within that line and keeps its class,
    unless ``kind`` names the class to raise instead.
    """
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise (kind or type(exc))(exc.raw_message, line, column + exc.column - 1) from None


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

