"""Theories, the layered legality rule, and the theory file format.

The central semantics: a formula belongs to a theory's syntax when it is
undecided there, or when every atom in it is already decided. Truth and
falsity track provability and refutability, never a valuation.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from nafl.errors import (
    IllegalAxiomError,
    InconsistentTheoryError,
    NaflError,
    ParseError,
    UnknownAtomError,
    UnknownTokenError,
    VocabularyError,
)
from nafl.syntax import And, Atom, Iff, Implies, Not, Or, atoms_of, parse_formula as pf
from nafl.theories import PropStatus, Theory, load_theory, parse_theory
from oracles import entails_by_enumeration, models_by_enumeration


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


@pytest.mark.parametrize("vocabulary", ["PQ", {"P&Q"}, {"P", "1x"}, {""}, {"P Q"}, {"P\n"}])
def test_a_vocabulary_of_anything_but_atom_names_is_a_vocabulary_error(vocabulary):
    with pytest.raises(VocabularyError):
        Theory("X", vocabulary, ())


def test_sixteen_atoms_is_the_vocabulary_bound():
    names = [f"A{i}" for i in range(16)]
    theory = Theory("X", names, [pf("A0"), pf("A0 -> A1")])
    assert theory.classify(pf("A1")) is PropStatus.PROVABLE
    assert theory.classify(pf("A15")) is PropStatus.UNDECIDABLE
    with pytest.raises(VocabularyError) as info:
        Theory("X", names + ["A16"], ())
    assert str(info.value) == "theory 'X' declares 17 atoms; the supported bound is 16"


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


def test_extend_equals_building_the_whole_theory():
    base = Theory("QM", frozenset({"P", "Q", "R"}), (pf("Q -> P"),))
    delta = (pf("R -> P"), pf("Q"))
    grown = base.extend(delta)
    assert grown == Theory("QM+R -> P+Q", base.vocabulary, base.axioms + delta)
    assert grown.atom_status("P") is PropStatus.PROVABLE


@pytest.mark.parametrize(
    "delta",
    [
        ["P | ~P"],                 # illegal: decided, over an undecided atom
        ["P -> Q", "P | ~P"],       # legal, then illegal after it
        ["Q", "~P"],                # legal in order, jointly inconsistent
        ["Q", "Z"],                 # a stray atom outranks the legality check
        ["P | ~P", "Z"],
        ["Q", "~P", "P | ~P | Z"],
    ],
)
def test_extend_fails_exactly_like_building_the_whole_theory(delta):
    base = Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"),))
    delta = tuple(pf(text) for text in delta)
    name = f"QM+{'+'.join(str(d) for d in delta)}"
    with pytest.raises(Exception) as by_extend:
        base.extend(delta)
    with pytest.raises(Exception) as by_constructor:
        Theory(name, base.vocabulary, base.axioms + delta)
    assert type(by_extend.value) is type(by_constructor.value)
    assert str(by_extend.value) == str(by_constructor.value)


def test_undecided_and_decided_atom_lists():
    theory = Theory("T", frozenset({"A", "Q"}), (pf("Q"),))
    assert theory.decided_atoms() == ("Q",)
    assert theory.undecided_atoms() == ("A",)


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


# Counts the truth tables theories compute while they check formulas that
# are decided but mix decided atoms with one undecided atom, both in
# construction (the axiom is rejected) and in is_legal. The layered rule
# stops at the first undecided atom, so the count depends on the order the
# atoms are visited.
TABLE_PROBE = """
from nafl.errors import IllegalAxiomError
from nafl.syntax import parse_formula
from nafl.theories import Theory

calls = 0
compute = Theory._table

def counted(self, phi):
    global calls
    calls += 1
    return compute(self, phi)

Theory._table = counted
decided = [parse_formula(name) for name in "ABCDEF"]
for name in "GHIJKL":
    mixed = parse_formula(f"({name} | ~{name}) | (A & B & C & D & E & F)")
    Theory("probe", list("ABCDEFGHIJKL"), decided).is_legal(mixed)
    try:
        Theory("probe", list("ABCDEFGHIJKL"), decided + [mixed])
    except IllegalAxiomError:
        pass
print(calls)
"""


def test_entailment_count_does_not_depend_on_the_hash_seed(run_python):
    counts = {
        run_python(TABLE_PROBE, PYTHONHASHSEED=seed) for seed in ("0", "1", "2")
    }
    assert len(counts) == 1
    assert int(counts.pop()) > 0


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
    assert (info.value.line, info.value.column) == (3, 10)

    with pytest.raises(ParseError) as info:
        parse_theory("atoms A\n")
    assert "theory" in str(info.value)

    with pytest.raises(ParseError):
        parse_theory("theory T\nwibble A\n")
    with pytest.raises(ParseError):
        parse_theory("theory T\ntheory S\n")


@pytest.mark.parametrize(
    "line, column",
    [
        ("axiom A & @", 11),
        ("\taxiom  (A | B  # unclosed", 15),
        ("   axiom   a &", 15),
        ("query a | (", 12),
        ("axiom\tA &\t@", 11),
        ("\tquery\t\ta |", 12),
        # a line error points at the directive
        ("  wibble A", 3),
        ("\ttheory S", 2),
        ("atoms   # none", 1),
        (" axiom", 2),
        ("   query  ", 4),
    ],
)
def test_parse_theory_columns_count_from_the_start_of_the_line(line, column):
    with pytest.raises(ParseError) as info:
        parse_theory(f"theory T\natoms A B a\n{line}\n")
    assert (info.value.line, info.value.column) == (3, column)


@pytest.mark.parametrize(
    "line, column", [("atoms P 1x a-b", 9), ("atoms P1x\t1x", 11), ("\tatoms  A  x.y", 12)]
)
def test_parse_theory_rejects_a_bad_atom_name_at_its_column(line, column):
    with pytest.raises(ParseError, match="bad atom name") as info:
        parse_theory(f"theory T\n{line}\n")
    assert (info.value.line, info.value.column) == (2, column)


def test_an_unclosed_quote_does_not_hide_a_comment():
    with pytest.raises(UnknownTokenError, match="unknown token '\"'") as info:
        parse_theory('theory T\natoms A B\naxiom A " B  # the comment\n')
    assert (info.value.line, info.value.column) == (3, 9)


def test_parse_theory_keeps_the_class_of_a_formula_error():
    with pytest.raises(UnknownTokenError) as info:
        parse_theory("theory T\natoms A\naxiom A @\n")
    assert (info.value.line, info.value.column) == (3, 9)


def test_parse_theory_splits_words_at_tabs():
    theory, queries = parse_theory(GOOD.replace(" ", "\t"))
    assert (theory, queries) == parse_theory(GOOD)


def test_load_theory(tmp_path):
    path = tmp_path / "qm.thy"
    path.write_text(GOOD, encoding="utf-8")
    theory, queries = load_theory(str(path))
    assert theory.name == "QM"
    assert len(queries) == 2


# -- one decision per question ----------------------------------------------------


def chain(length):
    names = [f"A{i}" for i in range(length + 1)]
    axioms = [pf(f"{a} -> {b}") for a, b in zip(names, names[1:])]
    return Theory("chain", names, axioms)


def test_a_second_classify_computes_no_table(table_calls):
    theory = chain(3)
    phi = pf("A3 -> A0")
    table_calls.clear()
    assert theory.classify(phi) is PropStatus.UNDECIDABLE
    assert table_calls == [phi]
    assert theory.classify(phi) is PropStatus.UNDECIDABLE
    assert theory.classify(pf("A3 -> A0")) is PropStatus.UNDECIDABLE
    assert theory.is_legal(phi)  # legal because undecided: no further table
    assert table_calls == [phi]


def test_atom_status_and_classify_share_one_memo(table_calls):
    theory = chain(2)
    assert theory.atom_status("A1") is PropStatus.UNDECIDABLE
    computed = len(table_calls)
    assert theory.classify(pf("A1")) is PropStatus.UNDECIDABLE
    assert len(table_calls) == computed


def test_extend_checks_only_the_delta(table_calls):
    costs = []
    for length in (2, 12):
        theory = chain(length)
        before = len(table_calls)
        theory.extend([pf("A0")])
        costs.append(len(table_calls) - before)
    # one table to classify the new axiom, one to narrow the models
    assert costs == [2, 2]


def test_formulas_equivalent_to_a_decided_one_cost_one_table_each(table_calls):
    theory = chain(3)
    assert theory.classify(pf("A0")) is PropStatus.UNDECIDABLE
    table_calls.clear()
    same = [pf("A0 & (A3 | ~A3)"), pf("~~A0")]
    assert [theory.classify(phi) for phi in same] == [PropStatus.UNDECIDABLE] * 2
    assert table_calls == same


@pytest.mark.parametrize(
    "text", ["A0", "A4", "~A2", "A0 -> A4", "A0 & ~A4", "A2 <-> A3", "A4 -> A0", "A1 | ~A1"]
)
def test_a_fresh_formula_costs_at_most_one_search(table_calls, text):
    theory = chain(4)
    table_calls.clear()
    theory.classify(pf(text))
    assert table_calls == [pf(text)]


# -- inheritance through extend agrees with a fresh theory and the oracle --------

NAMES = [f"A{i}" for i in range(8)]


def _formulas(names, max_leaves):
    return st.recursive(
        st.sampled_from(names).map(Atom),
        lambda inner: st.one_of(
            inner.map(Not),
            *(st.tuples(inner, inner).map(lambda p, op=op: op(*p)) for op in (And, Or, Implies, Iff)),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def extend_chains(draw):
    names = NAMES[: draw(st.integers(1, 8))]
    # small axioms, so that more of them are legal and chains grow longer
    steps = draw(st.lists(st.lists(_formulas(names, 3), max_size=3), min_size=1, max_size=4))
    queries = draw(st.lists(_formulas(names, 5), min_size=1, max_size=8))
    return names, steps, queries


def _oracle_status(axioms, phi):
    if entails_by_enumeration(axioms, phi):
        return PropStatus.PROVABLE
    if entails_by_enumeration(axioms, Not(phi)):
        return PropStatus.REFUTABLE
    return PropStatus.UNDECIDABLE


def _oracle_legal(axioms, phi):
    return _oracle_status(axioms, phi) is PropStatus.UNDECIDABLE or all(
        _oracle_status(axioms, Atom(name)) is not PropStatus.UNDECIDABLE
        for name in atoms_of(phi)
    )


def _table_models(theory):
    """The valuations set in a theory's table: bit k of index i is atom k's value."""
    vocab = sorted(theory.vocabulary)
    return {
        tuple((name, bool(i >> k & 1)) for k, name in enumerate(vocab))
        for i in range(1 << len(vocab))
        if theory._models >> i & 1
    }


def _built(name, names, axioms):
    try:
        return Theory(name, names, axioms)
    except NaflError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(extend_chains())
def test_extend_chains_agree_with_fresh_theories_and_the_oracle(case):
    names, steps, queries = case
    grown = _built("T", names, steps[0])
    for delta in steps[1:] + [None]:
        if isinstance(grown, NaflError):
            return
        fresh = Theory(grown.name, names, grown.axioms)
        for phi in queries:
            status = _oracle_status(grown.axioms, phi)
            legal = _oracle_legal(grown.axioms, phi)
            with patch.object(Theory, "_table", autospec=True, side_effect=Theory._table) as table:
                assert grown.classify(phi) is status
            assert table.call_count <= 1
            assert fresh.classify(phi) is status
            assert grown.is_legal(phi) is fresh.is_legal(phi) is legal
        models = models_by_enumeration(names, grown.axioms)
        assert _table_models(grown) == _table_models(fresh) == models
        if delta is None:
            return
        try:
            grown = grown.extend(delta)
        except NaflError as exc:
            name = f"{grown.name}+{'+'.join(map(str, delta))}"
            expected = _built(name, names, grown.axioms + tuple(delta))
            assert type(exc) is type(expected) and str(exc) == str(expected)
            return
