"""Theories, the layered legality rule, and theorem enumeration.

The central semantics: a formula belongs to a theory's syntax when it is
undecided there, or when every atom in it is already decided. Truth and
falsity track provability and refutability, never a valuation.
"""

import pytest

from nafl.errors import (
    BoundExceededError,
    IllegalAxiomError,
    InconsistentTheoryError,
    ParseError,
    UnknownAtomError,
    VocabularyError,
)
from nafl.syntax import parse_formula as pf
from nafl.theories import PropStatus, Theory, load_theory, parse_theory


def t0(*atoms):
    return Theory("T0", frozenset(atoms), ())


def qm_plus_q():
    return Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"),)).extend([pf("Q")])


# -- classification ----------------------------------------------------------


def test_empty_theory_leaves_atoms_undecided():
    theory = t0("P", "Q")
    assert theory.atom_status("P") is PropStatus.UNDECIDABLE
    assert theory.classify(pf("P & Q")) is PropStatus.UNDECIDABLE
    assert theory.classify(pf("P | ~P")) is PropStatus.PROVABLE
    assert theory.classify(pf("P & ~P")) is PropStatus.REFUTABLE


def test_axioms_decide():
    theory = qm_plus_q()
    assert theory.atom_status("Q") is PropStatus.PROVABLE
    assert theory.atom_status("P") is PropStatus.PROVABLE
    assert theory.classify(pf("~P")) is PropStatus.REFUTABLE
    assert theory.classify(pf("P & Q")) is PropStatus.PROVABLE


def test_unknown_atom_raises():
    theory = t0("P")
    with pytest.raises(UnknownAtomError):
        theory.classify(pf("Z"))
    with pytest.raises(UnknownAtomError):
        theory.atom_status("Z")


# -- the layered legality rule ------------------------------------------------


def test_atoms_are_always_legal():
    assert t0("P").is_legal(pf("P"))
    assert qm_plus_q().is_legal(pf("P"))


def test_excluded_middle_is_illegal_for_an_undecided_atom():
    theory = t0("P")
    assert not theory.is_legal(pf("P | ~P"))
    assert not theory.is_legal(pf("P & ~P"))


def test_excluded_middle_becomes_legal_once_decided():
    theory = qm_plus_q()
    assert theory.is_legal(pf("P | ~P"))
    assert theory.is_legal(pf("P & ~P"))
    assert theory.classify(pf("P & ~P")) is PropStatus.REFUTABLE


def test_unentailed_compounds_over_undecided_atoms_are_legal():
    theory = t0("A", "B")
    for text in ("A -> B", "A & B", "A | B", "A <-> B", "~A"):
        assert theory.is_legal(pf(text)), text


def test_classical_tautologies_are_illegal_over_undecided_atoms():
    theory = t0("A", "B")
    for text in ("(A & (A -> B)) -> B", "~~A <-> A", "A -> A", "A -> (B -> A)"):
        assert theory.classify(pf(text)) is PropStatus.PROVABLE
        assert not theory.is_legal(pf(text)), text


def test_mixed_formula_with_one_undecided_atom_is_illegal_when_decided():
    theory = Theory("T", frozenset({"A", "Q"}), (pf("Q"),))
    # Q is an axiom, so A | Q is entailed while A stays undecided
    assert theory.classify(pf("A | Q")) is PropStatus.PROVABLE
    assert not theory.is_legal(pf("A | Q"))
    # A & Q is undecided, hence legal
    assert theory.is_legal(pf("A & Q"))


def test_bridge_axiom_is_illegal_in_its_own_finished_theory():
    bridge = pf("Q -> P")
    theory = Theory("QM", frozenset({"P", "Q"}), (bridge,))
    assert theory.classify(bridge) is PropStatus.PROVABLE
    assert not theory.is_legal(bridge)


# -- construction is incremental ----------------------------------------------


def test_each_axiom_is_checked_against_the_preceding_ones():
    # fine: the bridge is undecided in the empty theory, Q undecided after it
    Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"), pf("Q")))
    # fine in the other order too: Q first, then the bridge is still undecided
    Theory("X", frozenset({"P", "Q"}), (pf("Q"), pf("Q -> P")))


def test_repeating_an_axiom_is_rejected():
    with pytest.raises(IllegalAxiomError):
        Theory("X", frozenset({"P", "Q"}), (pf("Q -> P"), pf("Q -> P")))


def test_contradictory_single_axiom_is_rejected_as_illegal():
    # A & ~A is refutable in the empty theory while A is undecided there
    with pytest.raises(IllegalAxiomError):
        Theory("X", frozenset({"A"}), (pf("A & ~A"),))


def test_tautology_axiom_is_rejected_as_illegal():
    with pytest.raises(IllegalAxiomError):
        Theory("X", frozenset({"A"}), (pf("A | ~A"),))


def test_contradictory_pair_is_rejected_as_inconsistent():
    # ~A is legal once A is an axiom (A is decided), so the failure here is
    # the consistency check, not the syntax gate
    with pytest.raises(InconsistentTheoryError):
        Theory("X", frozenset({"A"}), (pf("A"), pf("~A")))


def test_vocabulary_is_enforced():
    with pytest.raises(UnknownAtomError):
        Theory("X", frozenset({"A"}), (pf("B"),))
    with pytest.raises(VocabularyError):
        Theory("X", frozenset(f"A{i}" for i in range(25)), ())


# -- extension ------------------------------------------------------------------


def test_extend_builds_a_new_theory():
    base = Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"),))
    grown = base.extend([pf("Q")])
    assert grown.name == "QM+Q"
    assert base.atom_status("P") is PropStatus.UNDECIDABLE
    assert grown.atom_status("P") is PropStatus.PROVABLE


def test_extend_with_nothing_returns_self():
    base = t0("P")
    assert base.extend([]) is base


def test_extend_rejects_illegal_delta():
    base = t0("P")
    with pytest.raises(IllegalAxiomError):
        base.extend([pf("P | ~P")])


def test_undecided_and_decided_atom_lists():
    theory = Theory("T", frozenset({"A", "Q"}), (pf("Q"),))
    assert theory.decided_atoms() == ("Q",)
    assert theory.undecided_atoms() == ("A",)


# -- theorem enumeration ---------------------------------------------------------


def test_empty_theory_has_no_theorems():
    assert t0("A", "B").theorems(3) == frozenset()


def test_theorems_of_a_decided_theory():
    theory = qm_plus_q()
    found = theory.theorems(1)
    assert pf("P") in found
    assert pf("Q") in found
    assert pf("P & Q") in found
    assert pf("P | ~P") not in found  # that needs depth 2
    assert pf("P | ~P") in theory.theorems(2)
    assert pf("~P") not in theory.theorems(2)


def test_theorems_exclude_formulas_touching_undecided_atoms():
    theory = Theory("T", frozenset({"A", "Q"}), (pf("Q"),))
    found = theory.theorems(2)
    assert pf("Q") in found
    assert all("A" not in _atom_names(phi) for phi in found)


def _atom_names(phi):
    from nafl.syntax import atoms_of

    return atoms_of(phi)


def test_theorems_bounds():
    theory = qm_plus_q()
    with pytest.raises(BoundExceededError):
        theory.theorems(5)
    wide = Theory("W", frozenset({"A", "B", "C", "D", "E"}), ())
    with pytest.raises(BoundExceededError):
        wide.theorems(1)


def test_every_theorem_is_legal_and_provable():
    theory = qm_plus_q()
    for phi in theory.theorems(2):
        assert theory.is_legal(phi)
        assert theory.classify(phi) is PropStatus.PROVABLE


# -- the file format --------------------------------------------------------------


GOOD = """\
# a bridged pair with one loose atom
theory QM
atoms P Q R
axiom Q -> P
axiom Q
query P | ~P
query R
"""


# Counts entailment searches while theories check formulas that are decided
# but mix decided atoms with one undecided atom, both in construction (the
# axiom is rejected) and in is_legal. The layered rule stops at the first
# undecided atom, so the count depends on the order the atoms are visited.
ENTAILS_PROBE = """
from nafl import classical
from nafl.errors import IllegalAxiomError
from nafl.syntax import parse_formula
from nafl.theories import Theory

calls = 0
entails = classical.entails

def counted(*args):
    global calls
    calls += 1
    return entails(*args)

classical.entails = counted
decided = [parse_formula(name) for name in "ABCDEF"]
for name in "GHIJKL":
    mixed = parse_formula(f"({name} | ~{name}) | (A & B & C & D & E & F)")
    Theory("probe", "ABCDEFGHIJKL", decided).is_legal(mixed)
    try:
        Theory("probe", "ABCDEFGHIJKL", decided + [mixed])
    except IllegalAxiomError:
        pass
print(calls)
"""


def test_entailment_count_does_not_depend_on_the_hash_seed(run_python):
    counts = {
        run_python(ENTAILS_PROBE, PYTHONHASHSEED=seed) for seed in ("0", "1", "2")
    }
    assert len(counts) == 1


def test_parse_theory():
    theory, queries = parse_theory(GOOD)
    assert theory.name == "QM"
    assert theory.vocabulary == frozenset({"P", "Q", "R"})
    assert len(theory.axioms) == 2
    assert queries == [pf("P | ~P"), pf("R")]


def test_parse_theory_reports_file_lines():
    bad = "theory T\natoms A\naxiom A &\n"
    with pytest.raises(ParseError) as info:
        parse_theory(bad)
    assert info.value.line == 3

    with pytest.raises(ParseError) as info:
        parse_theory("atoms A\n")
    assert "theory" in str(info.value)

    with pytest.raises(ParseError):
        parse_theory("theory T\nwibble A\n")
    with pytest.raises(ParseError):
        parse_theory("theory T\ntheory S\n")


def test_load_theory(tmp_path):
    path = tmp_path / "qm.thy"
    path.write_text(GOOD, encoding="utf-8")
    theory, queries = load_theory(str(path))
    assert theory.name == "QM"
    assert len(queries) == 2
