"""Grammar, printer, and NNF conversion; the parser against its oracle."""

import itertools
import re
from typing import Iterator, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from nafl.errors import ParseError, UnknownTokenError
from nafl.syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    format_formula,
    parse_formula,
    split_line,
)
from oracles import eval_formula, to_nnf


def test_atom_and_connectives():
    assert parse_formula("P") == Atom("P")
    assert parse_formula("P & ~P") == And(Atom("P"), Not(Atom("P")))
    assert parse_formula("A | B") == Or(Atom("A"), Atom("B"))
    assert parse_formula("A -> B") == Implies(Atom("A"), Atom("B"))
    assert parse_formula("A <-> B") == Iff(Atom("A"), Atom("B"))


def test_double_negation_is_not_collapsed():
    # ~~A and A are distinct syntactic objects here; no rewriting at parse time
    assert parse_formula("~~A") == Not(Not(Atom("A")))
    assert parse_formula("~~A") != Atom("A")


def test_precedence():
    assert parse_formula("A | B & C") == Or(Atom("A"), And(Atom("B"), Atom("C")))
    assert parse_formula("~A & B") == And(Not(Atom("A")), Atom("B"))
    assert parse_formula("A & B -> C") == Implies(And(Atom("A"), Atom("B")), Atom("C"))
    assert parse_formula("A -> B <-> C") == Iff(Implies(Atom("A"), Atom("B")), Atom("C"))


def test_implication_is_right_associative():
    assert parse_formula("A -> B -> C") == parse_formula("A -> (B -> C)")
    assert parse_formula("A -> B -> C") != parse_formula("(A -> B) -> C")


def test_and_or_left_associative():
    assert parse_formula("A & B & C") == And(And(Atom("A"), Atom("B")), Atom("C"))
    assert parse_formula("A | B | C") == Or(Or(Atom("A"), Atom("B")), Atom("C"))


def test_parentheses_and_whitespace():
    assert parse_formula("(A)") == Atom("A")
    assert parse_formula("  A   ->\t(B -> A) ") == Implies(
        Atom("A"), Implies(Atom("B"), Atom("A"))
    )


def test_atom_names():
    assert parse_formula("photon_hit_42") == Atom("photon_hit_42")
    assert atoms_of(parse_formula("A2 & ~A2 | b")) == frozenset({"A2", "b"})


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_formula("A & ")
    assert info.value.line == 1
    assert info.value.column == 5

    with pytest.raises(UnknownTokenError) as info:
        parse_formula("A @ B")
    assert info.value.column == 3

    with pytest.raises(ParseError):
        parse_formula("(A & B")
    with pytest.raises(ParseError):
        parse_formula("A B")
    with pytest.raises(ParseError):
        parse_formula("")


def _chain(operator, operands):
    return f" {operator} ".join(["A"] * operands)


# Text nested n levels deep, in each shape the cap must count the same way.
_NESTINGS = {
    "parens": lambda n: "(" * n + "A" + ")" * n,
    "negations": lambda n: "~" * n + "A",
    "mixed": lambda n: "~(" * (n // 2) + "A" + ")" * (n // 2),
    "and": lambda n: _chain("&", n + 1),
    "or": lambda n: _chain("|", n + 1),
    "implies": lambda n: _chain("->", n + 1),
    "iff": lambda n: _chain("<->", n + 1),
}


@pytest.mark.parametrize("nest", list(_NESTINGS.values()), ids=list(_NESTINGS))
def test_nesting_cap_sits_at_max_depth(nest):
    deepest = parse_formula(nest(MAX_DEPTH))
    # the tree at the cap stays within reach of the recursive printer and evaluator
    assert parse_formula(format_formula(deepest)) == deepest
    assert eval_formula(deepest, {"A": True}) in (True, False)
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_formula(nest(MAX_DEPTH + 2))


@pytest.mark.parametrize(
    "text",
    ["(" * 200 + "A" + ")" * 200, "~" * 1000 + "A", _chain("&", 3000), _chain("->", 3000)],
    ids=["parens", "negations", "and", "implies"],
)
def test_deep_nesting_is_a_parse_error_not_a_recursion_error(text):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert info.value.line == 1
    _assert_agrees_with_the_oracle(text)


def test_nesting_error_points_at_the_level_past_the_cap():
    with pytest.raises(ParseError) as info:
        parse_formula("(" * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1))
    assert info.value.column == MAX_DEPTH + 1
    with pytest.raises(ParseError) as info:
        parse_formula("(" * MAX_DEPTH + "A" + ")" * MAX_DEPTH + " -> B")
    assert info.value.column == 2 * MAX_DEPTH + 3


@pytest.mark.parametrize(
    "line, column, words",
    [
        ("atom P", 1, ("atom", 1, "P", 6)),
        ("\t at  t1 declare Q  ", 1, ("at", 3, "t1 declare Q", 7)),
        ("t1 declare Q", 4, ("t1", 4, "declare Q", 7)),
        ("query", 1, ("query", 1, "", 6)),
        ('atom P "a # b" # c', 1, ("atom", 1, 'P "a # b"', 6)),
        ('atom P "a" # "b"', 1, ("atom", 1, 'P "a"', 6)),
        ('axiom A " B # c', 1, ("axiom", 1, 'A " B', 7)),
        ('axiom A " # " B', 1, ("axiom", 1, 'A " # " B', 7)),
        ("  # a comment", 1, None),
        ("", 1, None),
    ],
)
def test_split_line(line, column, words):
    assert split_line(line, column) == words


def test_printer_minimal_parentheses():
    cases = [
        ("A & (B | C)", "A & (B | C)"),
        ("(A & B) | C", "A & B | C"),
        ("~(A & B)", "~(A & B)"),
        ("(A -> B) -> C", "(A -> B) -> C"),
        ("A -> (B -> C)", "A -> B -> C"),
        ("~~A", "~~A"),
    ]
    for source, expected in cases:
        assert format_formula(parse_formula(source)) == expected


def _formulas(max_leaves: int = 8):
    names = st.sampled_from(["A", "B", "C", "P", "Q"])
    return st.recursive(
        names.map(Atom),
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
            st.tuples(inner, inner).map(lambda p: Iff(*p)),
        ),
        max_leaves=max_leaves,
    )


@given(_formulas())
def test_parse_inverts_format(phi):
    assert parse_formula(format_formula(phi)) == phi


@given(_formulas())
def test_nnf_uses_only_literals_and_lattice(phi):
    def check(node):
        if isinstance(node, Atom):
            return
        if isinstance(node, Not):
            assert isinstance(node.operand, Atom)
            return
        assert isinstance(node, (And, Or))
        check(node.left)
        check(node.right)

    check(to_nnf(phi))


def test_nnf_examples():
    assert to_nnf(parse_formula("~(A & B)")) == Or(Not(Atom("A")), Not(Atom("B")))
    assert to_nnf(parse_formula("~(A | B)")) == And(Not(Atom("A")), Not(Atom("B")))
    assert to_nnf(parse_formula("A -> B")) == Or(Not(Atom("A")), Atom("B"))
    assert to_nnf(parse_formula("~~A")) == Atom("A")


# --------------------------------------------------------------------------
# The oracle: the recursive-descent reader that the scanner and precedence
# climbing replaced. It tokenizes eagerly, with a line and column per token,
# and has one production per precedence level.
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


class _DescentParser:
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


def parse_oracle(text: str):
    return _DescentParser(text).parse()


def _outcome(parse, text):
    """The tree, or the error's class, message, line and column."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.raw_message, exc.line, exc.column


def _assert_agrees_with_the_oracle(text):
    assert _outcome(parse_formula, text) == _outcome(parse_oracle, text), repr(text)


def test_every_short_token_sequence_parses_as_the_oracle_does():
    # Five tokens hold every pair of binary operators between three operands.
    alphabet = ["A", "~", "&", "|", "->", "<->", "(", ")"]
    for size in range(6):
        for tokens in itertools.product(alphabet, repeat=size):
            _assert_agrees_with_the_oracle(" ".join(tokens))


_SOUP = st.lists(
    st.sampled_from(
        ["A", "B", "x1", "_q", "~", "&", "|", "->", "<->", "(", ")", " ", "\t", "\n",
         "@", "é", "-", "<-", "7"]
    ),
    max_size=24,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_SOUP)
def test_token_soup_parses_as_the_oracle_does(text):
    _assert_agrees_with_the_oracle(text)


_SYMBOL = {And: (4, "&"), Or: (3, "|"), Implies: (2, "->"), Iff: (1, "<->")}


def _render_loosely(node, rng, min_power=0):
    """Surface text of ``node`` with random whitespace and extra parentheses."""

    def gap():
        return rng.choice(["", " ", "  ", "\t", "\n", " \n "])

    if isinstance(node, Atom):
        power, text = 6, node.name
    elif isinstance(node, Not):
        power, text = 5, "~" + gap() + _render_loosely(node.operand, rng, 5)
    else:
        power, symbol = _SYMBOL[type(node)]
        # '->' groups to the right, the other three to the left
        left, right = (power + 1, power) if isinstance(node, Implies) else (power, power + 1)
        text = (_render_loosely(node.left, rng, left) + gap() + symbol + gap()
                + _render_loosely(node.right, rng, right))
    if power < min_power or rng.random() < 0.2:
        text = "(" + gap() + text + gap() + ")"
    return text


@settings(max_examples=200, deadline=None)
@given(_formulas(max_leaves=12), st.randoms(use_true_random=False))
def test_loosely_rendered_formulas_parse_as_the_oracle_does(phi, rng):
    text = rng.choice(["", " ", "\n"]) + _render_loosely(phi, rng) + rng.choice(["", "\t", "\n"])
    assert parse_formula(text) == phi
    _assert_agrees_with_the_oracle(text)
    _assert_agrees_with_the_oracle(format_formula(phi))


@pytest.mark.parametrize("excess", range(-2, 3))
@pytest.mark.parametrize("nest", list(_NESTINGS.values()), ids=list(_NESTINGS))
def test_deep_inputs_parse_as_the_oracle_does(nest, excess):
    text = nest(MAX_DEPTH + excess)
    _assert_agrees_with_the_oracle(text)
    _assert_agrees_with_the_oracle("\n  " + text + " -> B")
    _assert_agrees_with_the_oracle("~(" + text + ") @")
