"""The truth-table kernel must agree with exhaustive enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from nafl.classical import entails, is_satisfiable, vocabulary_of
from nafl.errors import VocabularyError
from nafl.syntax import And, Atom, Iff, Implies, Not, Or, parse_formula as pf
# The oracle: exhaustive valuation enumeration, independent of the tables.
from oracles import (
    entails_by_enumeration,
    eval_formula,
    is_satisfiable_by_enumeration,
    valuations,
)


def test_eval_formula():
    v = {"A": True, "B": False}
    assert eval_formula(pf("A"), v) is True
    assert eval_formula(pf("~A"), v) is False
    assert eval_formula(pf("A & B"), v) is False
    assert eval_formula(pf("A | B"), v) is True
    assert eval_formula(pf("A -> B"), v) is False
    assert eval_formula(pf("B -> A"), v) is True
    assert eval_formula(pf("A <-> B"), v) is False
    assert eval_formula(pf("A <-> ~B"), v) is True


def test_valuations_count():
    assert len(list(valuations(frozenset({"A", "B", "C"})))) == 8
    assert list(valuations(frozenset()))[0] == {}


def test_satisfiability_basics():
    assert is_satisfiable([pf("A & ~B")])
    assert not is_satisfiable([pf("A & ~A")])
    assert not is_satisfiable([pf("A"), pf("~A")])
    assert is_satisfiable([])  # the empty theory has every model
    assert not is_satisfiable([pf("A <-> ~A")])


def test_entailment_basics():
    assert entails([pf("Q -> P"), pf("Q")], pf("P"))
    assert not entails([pf("Q -> P")], pf("P"))
    assert entails([], pf("A | ~A"))
    assert not entails([], pf("A"))
    assert entails([pf("A & ~A")], pf("B"))  # vacuous: no models at all


def test_entailment_monotone_under_extra_axioms():
    axioms = [pf("A -> B")]
    assert not entails(axioms, pf("B"))
    assert entails(axioms + [pf("A")], pf("B"))


def test_never_both_a_formula_and_its_negation():
    axioms = [pf("Q -> P")]
    for text in ("P", "Q", "P & Q", "P -> Q"):
        phi = pf(text)
        both = entails(axioms, phi) and entails(axioms, Not(phi))
        assert not both


def test_vocabulary_cap():
    axioms = [pf(f"A{i}") for i in range(25)]
    with pytest.raises(VocabularyError):
        is_satisfiable(axioms)
    with pytest.raises(VocabularyError):
        entails(axioms, pf("A0"))


def test_sixteen_atoms_is_the_entailment_bound():
    axioms = [pf(f"A{i}") for i in range(16)]
    assert is_satisfiable(axioms)
    assert entails(axioms, pf("A0 & A15"))
    for check in (lambda: is_satisfiable(axioms + [pf("A16")]), lambda: entails(axioms, pf("A16"))):
        with pytest.raises(VocabularyError) as info:
            check()
        assert str(info.value) == "17 atoms exceed the supported bound of 16"


def test_routes_agree_on_fixed_cases():
    cases = [
        [pf("A & ~A")],
        [pf("A -> B"), pf("B -> C"), pf("A"), pf("~C")],
        [pf("A | B"), pf("~A")],
        [pf("A <-> B"), pf("B <-> C")],
    ]
    for axioms in cases:
        assert is_satisfiable(axioms) == is_satisfiable_by_enumeration(axioms)


def _formulas():
    names = st.sampled_from(["A", "B", "C", "D"])
    return st.recursive(
        names.map(Atom),
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
            st.tuples(inner, inner).map(lambda p: Iff(*p)),
        ),
        max_leaves=6,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_formulas(), max_size=4), _formulas())
def test_search_matches_enumeration(axioms, phi):
    assert is_satisfiable(axioms) == is_satisfiable_by_enumeration(axioms)
    assert entails(axioms, phi) == entails_by_enumeration(axioms, phi)


@given(_formulas())
def test_entailed_formulas_hold_in_every_model(phi):
    axioms = [phi]
    if not is_satisfiable(axioms):
        return
    vocab = vocabulary_of(axioms)
    for valuation in valuations(vocab):
        if eval_formula(phi, valuation):
            break
    else:
        pytest.fail("satisfiable formula with no model found by enumeration")
