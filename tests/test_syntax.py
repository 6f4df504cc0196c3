"""Grammar, printer, and NNF conversion."""

import pytest
from hypothesis import given, strategies as st

from nafl.classical import eval_formula
from nafl.errors import ParseError, UnknownTokenError
from nafl.syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    format_formula,
    parse_formula,
    to_nnf,
)


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


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "A" + ")" * n,
        lambda n: "~" * n + "A",
        lambda n: "~(" * (n // 2) + "A" + ")" * (n // 2),
        lambda n: _chain("&", n + 1),
        lambda n: _chain("|", n + 1),
        lambda n: _chain("->", n + 1),
        lambda n: _chain("<->", n + 1),
    ],
    ids=["parens", "negations", "mixed", "and", "or", "implies", "iff"],
)
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


def test_nesting_error_points_at_the_level_past_the_cap():
    with pytest.raises(ParseError) as info:
        parse_formula("(" * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1))
    assert info.value.column == MAX_DEPTH + 1
    with pytest.raises(ParseError) as info:
        parse_formula("(" * MAX_DEPTH + "A" + ")" * MAX_DEPTH + " -> B")
    assert info.value.column == 2 * MAX_DEPTH + 3


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
