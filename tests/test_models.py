"""Classical model enumeration and the superposed model."""

import functools
import itertools

import pytest
from hypothesis import given, settings

from nafl import models
from nafl.errors import NaflError, NoSuperpositionError, UnknownAtomError, VocabularyError
from nafl.models import (
    ClassicalModel,
    build_nonclassical,
    classical_models,
    nc_eval,
)
from nafl.syntax import And, Atom, Iff, Implies, Not, Or, parse_formula as pf
from nafl.theories import PropStatus, Theory
from oracles import eval_formula, lp_eval, models_by_enumeration, to_nnf
from test_theories import extend_chains


def test_empty_theory_over_one_atom_has_two_models():
    theory = Theory("T0", frozenset({"P"}), ())
    models = classical_models(theory)
    assert {m.value("P") for m in models} == {True, False}
    assert len(models) == 2


def test_axioms_cut_models_down():
    theory = Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"),))
    models = classical_models(theory)
    assert len(models) == 3  # the one killed is Q true, P false
    assert all(m.value("P") or not m.value("Q") for m in models)

    decided = theory.extend([pf("Q")])
    models = classical_models(decided)
    assert len(models) == 1
    (only,) = models
    assert only.as_dict() == {"P": True, "Q": True}


def test_classical_model_lookup():
    model = ClassicalModel.from_valuation({"B": False, "A": True})
    assert model.assignment == (("A", True), ("B", False))
    assert model.value("A") is True
    with pytest.raises(UnknownAtomError):
        model.value("Z")


def test_model_vocab_cap():
    # Theory refuses 17 atoms itself, so no theory past the bound reaches
    # classical_models.
    with pytest.raises(VocabularyError):
        classical_models(Theory("W", frozenset(f"A{i}" for i in range(17)), ()))


def test_sixteen_atoms_give_classical_and_superposed_models():
    names = [f"A{i:02d}" for i in range(16)]
    chain = Theory("C", names, [pf(f"{a} -> {b}") for a, b in zip(names, names[1:])])
    assert chain.classify(pf("A00 -> A15")) is PropStatus.PROVABLE
    assert chain.classify(pf("A15 -> A00")) is PropStatus.UNDECIDABLE
    # a model is a run of False followed by a run of True
    found = {tuple(v for _, v in m.assignment) for m in classical_models(chain)}
    assert found == {(False,) * k + (True,) * (16 - k) for k in range(17)}
    assert build_nonclassical(chain).superposed_atoms == frozenset(names)
    # with no axioms at all, every valuation is a model
    free = Theory("F", names, ())
    every = classical_models(free)
    assert len(every) == 1 << 16
    assert {tuple(v for _, v in m.assignment) for m in every} == set(
        itertools.product((False, True), repeat=16)
    )
    assert build_nonclassical(free).superposed_atoms == frozenset(names)


def test_the_superposed_model_enumerates_no_classical_model(monkeypatch):
    # Built from the atom statuses alone: 16 free atoms would otherwise cost
    # 65536 ClassicalModel objects that nothing reads.
    def refuse(theory):
        raise AssertionError("build_nonclassical enumerated the classical models")

    monkeypatch.setattr(models, "classical_models", refuse)
    names = [f"A{i:02d}" for i in range(16)]
    model = build_nonclassical(Theory("F", names, ()))
    assert model.superposed_atoms == frozenset(names)
    assert nc_eval(model, pf("A00 & ~A00")) is True


def _grown(names, steps):
    """The theories of one extend chain, until a step is rejected."""
    try:
        theory = Theory("T", names, steps[0])
        yield theory
        for delta in steps[1:]:
            theory = theory.extend(delta)
            yield theory
    except NaflError:
        return


@settings(max_examples=150, deadline=None)
@given(extend_chains())
def test_undecided_atoms_are_exactly_those_the_models_split_on(case):
    names, steps, _ = case
    for theory in _grown(names, steps):
        expected = models_by_enumeration(sorted(names), theory.axioms)
        assert {m.assignment for m in classical_models(theory)} == expected
        split = {name for name in names if len({dict(m)[name] for m in expected}) == 2}
        assert set(theory.undecided_atoms()) == split
        if split:
            assert build_nonclassical(theory).superposed_atoms == split
        else:
            with pytest.raises(NoSuperpositionError):
                build_nonclassical(theory)


def test_superposed_model_over_undecided_atoms():
    theory = Theory("T0", frozenset({"P", "Q"}), ())
    model = build_nonclassical(theory)
    assert model.superposed_atoms == frozenset({"P", "Q"})
    assert len(classical_models(theory)) == 4
    # both literals hold for a superposed atom
    assert model.literal_truth("P") is True
    assert model.literal_truth("P", negated=True) is True


def test_contradiction_holds_without_exploding():
    theory = Theory("T0", frozenset({"P", "Q"}), ())
    model = build_nonclassical(theory)
    assert nc_eval(model, pf("P & ~P")) is True
    assert nc_eval(model, pf("P | ~P")) is True
    assert nc_eval(model, pf("Q")) is True
    # no classical valuation satisfies P & ~P, yet nothing else follows:
    # the theory itself still proves nothing new (see test_theories)


def test_explosion_fails_where_a_falsehood_exists():
    # R is refuted, so R is nonclassically false while P stays superposed;
    # a true contradiction coexists with a false formula, so explosion fails
    theory = Theory("T", frozenset({"P", "R"}), (pf("~R"),))
    model = build_nonclassical(theory)
    assert nc_eval(model, pf("P & ~P")) is True
    assert nc_eval(model, pf("R")) is False
    assert nc_eval(model, pf("(P & ~P) & ~R")) is True


def test_decided_atoms_evaluate_classically():
    theory = Theory("T", frozenset({"P", "Q", "R"}), (pf("Q -> P"), pf("Q")))
    model = build_nonclassical(theory)  # R is still superposed
    assert model.superposed_atoms == frozenset({"R"})
    assert nc_eval(model, pf("P")) is True
    assert nc_eval(model, pf("~P")) is False
    assert nc_eval(model, pf("P & Q")) is True
    assert nc_eval(model, pf("~P | ~Q")) is False


def test_fully_decided_theory_has_no_superposition():
    theory = Theory("T", frozenset({"P"}), (pf("P"),))
    with pytest.raises(NoSuperpositionError):
        build_nonclassical(theory)


def test_nc_eval_rejects_stray_atoms():
    theory = Theory("T0", frozenset({"P"}), ())
    model = build_nonclassical(theory)
    with pytest.raises(UnknownAtomError):
        nc_eval(model, pf("Z"))


def test_nc_eval_agrees_with_classical_on_decided_vocabulary():
    # every formula over decided atoms gets its classical value
    theory = Theory("T", frozenset({"P", "Q", "R"}), (pf("P"), pf("~Q")))
    model = build_nonclassical(theory)
    valuation = {"P": True, "Q": False}
    for text in ("P & ~Q", "P -> Q", "P | Q", "P <-> Q", "~(P & Q)"):
        phi = pf(text)
        assert nc_eval(model, phi) == eval_formula(phi, valuation), text


def nnf_oracle(model, phi):
    """nc_eval by its definition: literal lookup in the negation normal form."""

    def walk(node):
        if isinstance(node, Atom):
            return model.literal_truth(node.name)
        if isinstance(node, Not):
            return model.literal_truth(node.operand.name, negated=True)
        if isinstance(node, And):
            return walk(node.left) and walk(node.right)
        return walk(node.left) or walk(node.right)

    return walk(to_nnf(phi))


BINARY = (And, Or, Implies, Iff)
OPERANDS = (Atom("P"), Not(Atom("Q")), Atom("R"))
# P superposed throughout; Q and R superposed, provable or refutable.
MODEL_THEORIES = (
    Theory("S", frozenset({"P", "Q", "R"}), ()),
    Theory("D", frozenset({"P", "Q", "R"}), (pf("Q"), pf("~R"))),
    Theory("M", frozenset({"P", "Q", "R"}), (pf("~Q"), pf("Q | R"))),
)


def chains(length):
    """Left- and right-nested chains of OPERANDS under every operator mix."""
    for operands in itertools.product(OPERANDS, repeat=length):
        for ops in itertools.product(BINARY, repeat=length - 1):
            left = operands[0]
            for op, operand in zip(ops, operands[1:]):
                left = op(left, operand)
            right = operands[-1]
            for op, operand in zip(reversed(ops), reversed(operands[:-1])):
                right = op(operand, right)
            yield left
            yield right


@pytest.mark.parametrize("theory", MODEL_THEORIES, ids=lambda t: t.name)
def test_nc_eval_matches_the_nnf_oracle_on_small_chains(theory):
    model = build_nonclassical(theory)
    for length in range(1, 5):
        for phi in chains(length):
            for formula in (phi, Not(phi)):
                assert nc_eval(model, formula) == nnf_oracle(model, formula), formula


@pytest.mark.parametrize("theory", MODEL_THEORIES, ids=lambda t: t.name)
def test_nc_eval_matches_three_valued_lp_on_small_chains(theory):
    model = build_nonclassical(theory)
    statuses = dict(model.atom_status)
    for length in range(1, 5):
        for phi in chains(length):
            for formula in (phi, Not(phi)):
                assert nc_eval(model, formula) == lp_eval(formula, statuses), formula


def test_nc_eval_visits_each_node_once(monkeypatch):
    # A <-> chain of 64 operands, every other one negated: its negation
    # normal form would hold more than 2^65 nodes.
    operands = [Not(Atom("P")) if i % 2 else Atom("Q") for i in range(64)]
    phi = functools.reduce(Iff, operands)
    nodes = 64 + 32 + 63
    calls = []
    pair = models._nc_pair
    monkeypatch.setattr(models, "_nc_pair", lambda *args: calls.append(args) or pair(*args))
    model = build_nonclassical(Theory("T", frozenset({"P", "Q"}), (pf("Q"),)))
    nc_eval(model, phi)
    assert len(calls) == nodes
