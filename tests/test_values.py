"""Value semantics of the formula nodes and the frozen records: equality,
hashing, repr, immutability, pattern matching and field defaults."""

import copy
import pickle

import pytest

from nafl.models import ClassicalModel, build_nonclassical, classical_models, nc_eval
from nafl.record import record
from nafl.scenarios import DeclareEvent
from nafl.syntax import And, Atom, Iff, Implies, Not, Or, parse_formula as pf
from nafl.theories import Theory
from nafl.timeline import Epoch, Timeline

P, Q = Atom("P"), Atom("Q")


def test_nested_repr_reads_as_constructor_calls():
    assert repr(Not(P)) == "Not(operand=Atom(name='P'))"
    assert repr(pf("P & (Q -> ~P)")) == (
        "And(left=Atom(name='P'), right=Implies(left=Atom(name='Q'), "
        "right=Not(operand=Atom(name='P'))))"
    )


def test_nodes_equal_only_within_their_class():
    assert And(P, Q) == And(Atom("P"), Atom("Q"))
    assert And(P, Q) != Or(P, Q)
    assert Implies(P, Q) != Iff(P, Q)
    assert Not(P) != P
    assert And(P, Q) != And(Q, P)
    assert (P == "P") is False


def test_equal_nodes_hash_equal():
    left, right = pf("(P -> Q) <-> ~P"), pf("(P -> Q) <-> ~P")
    assert left is not right
    assert hash(left) == hash(right)
    assert len({left, right, pf("P"), Atom("P")}) == 2


@pytest.mark.parametrize(
    "node, field", [(P, "name"), (Not(P), "operand"), (And(P, Q), "left"), (Iff(P, Q), "right")]
)
def test_nodes_are_frozen(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Q)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1


def test_nodes_and_records_survive_copy_and_pickle():
    phi = pf("~(P -> Q) <-> P")
    for value in (phi, Theory("T", {"P", "Q"}, (pf("Q -> P"),)), DeclareEvent(3, "t1", (phi,))):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


def _shape(phi):
    match phi:
        case Atom(name):
            return name
        case Not(operand=inner):
            return f"~{_shape(inner)}"
        case And(left, right):
            return f"({_shape(left)} and {_shape(right)})"
        case Or(left=left, right=right):
            return f"({_shape(left)} or {_shape(right)})"
    return "other"


def test_positional_and_keyword_match_patterns():
    assert _shape(pf("~P & (Q | P)")) == "(~P and (Q or P))"
    assert _shape(pf("P -> Q")) == "other"


def test_theory_equality_ignores_the_memo_and_the_models():
    fresh = Theory("T", {"P", "Q"}, (pf("Q -> P"),))
    used = Theory("T", {"P", "Q"}, (pf("Q -> P"),))
    used.classify(pf("P & Q"))
    used.classify(pf("P"))
    assert used._status and not fresh._status
    assert used == fresh and hash(used) == hash(fresh)
    # the same fields over every valuation: other models, still equal
    loose = Theory._trusted(
        "T", fresh.vocabulary, fresh.axioms, fresh._full, fresh._columns, fresh._full
    )
    assert loose._models != fresh._models
    assert loose == fresh and hash(loose) == hash(fresh)
    assert repr(used) == (
        f"Theory(name='T', vocabulary={frozenset({'P', 'Q'})!r}, "
        "axioms=(Implies(left=Atom(name='Q'), right=Atom(name='P')),))"
    )
    assert Theory("U", {"P", "Q"}, (pf("Q -> P"),)) != fresh


def test_record_defaults():
    assert DeclareEvent(3, "t1", (P,)).expect_reject is False
    assert DeclareEvent(3, "t1", (P,), expect_reject=True).expect_reject is True
    theory = Theory("T", {"P"})
    assert Timeline(theory, (Epoch(0.0, (), theory),)).retro_assertions == ()


def test_records_are_frozen_values():
    event = DeclareEvent(3, "t1", (P,))
    assert event == DeclareEvent(line=3, time_label="t1", formulas=(P,), expect_reject=False)
    assert event != DeclareEvent(3, "t1", (P,), True)
    assert repr(event) == (
        "DeclareEvent(line=3, time_label='t1', formulas=(Atom(name='P'),), "
        "expect_reject=False)"
    )
    with pytest.raises(AttributeError):
        event.line = 4
    with pytest.raises(AttributeError):
        del event.line
    match event:
        case DeclareEvent(line, label, formulas, expect_reject=reject):
            fields = (line, label, formulas, reject)
    assert fields == (3, "t1", (P,), False)


def test_classical_models_deduplicate_in_a_frozenset():
    same = {"P": True, "Q": False}
    models = frozenset(
        [ClassicalModel.from_valuation(same), ClassicalModel.from_valuation(dict(same))]
    )
    assert len(models) == 1
    assert len(classical_models(Theory("T", {"P", "Q"}, (pf("Q -> P"),)))) == 3


def test_superposed_model_value_unchanged_by_its_literal_cache():
    theory = Theory("T", {"P", "Q"}, (pf("Q"),))
    fresh, used = build_nonclassical(theory), build_nonclassical(theory)
    before = (repr(used), hash(used))
    assert nc_eval(used, pf("P & ~P")) is True
    assert "_literals" in vars(used) and "_literals" not in vars(fresh)
    assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
    assert used == fresh
    for model in (fresh, used):
        assert pickle.loads(pickle.dumps(model)) == model


def test_record_init_checks_its_arguments():
    @record
    class Pair:
        first: int
        second: int = 2
        _hidden: int

    assert Pair(1) == Pair(first=1, second=2)
    assert Pair.__match_args__ == ("first", "second")
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})]:
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
