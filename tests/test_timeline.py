"""Epochs, time-indexed truth, retroactive assertions, and the kind audit."""

import math

import pytest

from nafl.errors import (
    BeforeExperimentError,
    IllegalAxiomError,
    IllegalPropositionError,
    OutOfOrderTimeError,
    TimelineError,
    UnknownAtomError,
    UnprovableRetroError,
)
from nafl.syntax import parse_formula as pf
from nafl.theories import Theory
from nafl.timeline import (
    Timeline,
    TruthValue,
    audit_kind_intervals,
    format_stamp,
)


def base():
    return Theory("QM", frozenset({"P", "Q"}), (pf("Q -> P"),))


def two_epochs():
    return Timeline.begin(base(), 0.0).declare(2.0, [pf("Q")])


def test_begin_has_one_empty_epoch():
    tl = Timeline.begin(base(), 0.0)
    assert len(tl.epochs) == 1
    assert tl.epochs[0].delta == ()
    assert tl.epochs[0].theory is tl.base
    assert tl.intervals() == ((0.0, math.inf),)


def test_declare_opens_a_new_epoch():
    tl = two_epochs()
    assert tl.intervals() == ((0.0, 2.0), (2.0, math.inf))
    assert tl.theory_at(0.0) is tl.base
    assert tl.theory_at(1.999) is tl.base
    assert tl.theory_at(2.0).name == "QM+Q"
    assert tl.theory_at(1e9).name == "QM+Q"


def test_declare_must_advance():
    tl = two_epochs()
    with pytest.raises(OutOfOrderTimeError):
        tl.declare(2.0, [pf("P")])
    with pytest.raises(OutOfOrderTimeError):
        tl.declare(1.0, [pf("P")])


def test_declare_is_persistent():
    first = Timeline.begin(base(), 0.0)
    second = first.declare(1.0, [pf("Q")])
    assert len(first.epochs) == 1
    assert len(second.epochs) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_times_must_be_finite(bad):
    with pytest.raises(TimelineError):
        Timeline.begin(base(), bad)
    tl = two_epochs()
    with pytest.raises(TimelineError):
        tl.declare(bad, [pf("P")])
    with pytest.raises(TimelineError):
        tl.retro_assert(bad, (0.0, 1.0), pf("P"))
    with pytest.raises(TimelineError):
        tl.retro_assert(3.0, (bad, 1.0), pf("P"))
    with pytest.raises(TimelineError):
        tl.retro_assert(3.0, (0.0, bad), pf("P"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_query_times_must_be_finite(bad):
    tl = two_epochs()
    with pytest.raises(TimelineError):
        tl.theory_at(bad)
    with pytest.raises(TimelineError):
        tl.truth_at(bad, pf("P"))


def test_time_before_the_experiment():
    tl = two_epochs()
    with pytest.raises(BeforeExperimentError):
        tl.theory_at(-0.5)
    with pytest.raises(BeforeExperimentError):
        tl.truth_at(-0.5, pf("P"))


def test_truth_follows_declarations():
    tl = two_epochs()
    assert tl.truth_at(0.0, pf("P")) is TruthValue.NEITHER
    assert tl.truth_at(1.0, pf("P")) is TruthValue.NEITHER
    assert tl.truth_at(2.0, pf("P")) is TruthValue.TRUE
    assert tl.truth_at(2.0, pf("~P")) is TruthValue.FALSE
    assert tl.truth_at(3.0, pf("P & Q")) is TruthValue.TRUE


def test_truth_decides_each_formula_once(table_calls):
    tl, fresh = two_epochs(), base()
    table_calls.clear()
    fresh.classify(pf("P -> Q"))
    one_decision = len(table_calls)
    table_calls.clear()
    assert tl.truth_at(0.0, pf("P -> Q")) is TruthValue.NEITHER
    assert len(table_calls) == one_decision
    assert tl.truth_at(1.0, pf("P -> Q")) is TruthValue.NEITHER
    assert len(table_calls) == one_decision


def test_truth_rejects_illegal_formulas():
    tl = two_epochs()
    with pytest.raises(IllegalPropositionError):
        tl.truth_at(1.0, pf("P | ~P"))
    # legal once both atoms are decided
    assert tl.truth_at(2.0, pf("P | ~P")) is TruthValue.TRUE


def test_declaring_an_illegal_formula_fails():
    tl = Timeline.begin(base(), 0.0)
    with pytest.raises(IllegalAxiomError):
        tl.declare(1.0, [pf("P & ~P")])


def test_retro_assertion_reaches_back_only_from_its_assertion_time():
    tl = two_epochs().retro_assert(2.0, (0.0, 2.0), pf("P"))
    (record,) = tl.retro_assertions
    assert record.bridge == pf("Q")
    # before the grounding measurement the formula has no truth value
    assert tl.truth_at(0.0, pf("P")) is TruthValue.NEITHER
    assert tl.truth_at(1.5, pf("P")) is TruthValue.NEITHER
    assert tl.truth_at(2.0, pf("P")) is TruthValue.TRUE


def test_retro_assertion_requires_provability():
    tl = two_epochs()
    with pytest.raises(UnprovableRetroError):
        tl.retro_assert(1.0, (0.0, 1.0), pf("P"))
    with pytest.raises(UnprovableRetroError):
        tl.retro_assert(2.0, (0.0, 2.0), pf("~P"))


def test_retro_assertion_interval_sanity():
    tl = two_epochs()
    with pytest.raises(ValueError):
        tl.retro_assert(2.0, (1.0, 1.0), pf("P"))
    with pytest.raises(ValueError):
        tl.retro_assert(2.0, (0.0, 3.0), pf("P"))


def test_retro_assertion_without_a_single_bridge():
    # P needs both declarations together, so no single bridge is named
    theory = Theory("T", frozenset({"A", "B", "P"}), (pf("A -> (B -> P)"),))
    tl = (
        Timeline.begin(theory, 0.0)
        .declare(1.0, [pf("A")])
        .declare(2.0, [pf("B")])
        .retro_assert(2.0, (0.0, 2.0), pf("P"))
    )
    (record,) = tl.retro_assertions
    assert record.bridge is None


def test_model_kind_intervals():
    tl = two_epochs()
    assert tl.model_kind_intervals("P") == (
        (0.0, 2.0, "nonclassical"),
        (2.0, math.inf, "classical"),
    )
    with pytest.raises(UnknownAtomError):
        tl.model_kind_intervals("Z")


def test_bcp_check_passes_on_a_timeline():
    report = two_epochs().bcp_check("P")
    assert report.passed
    assert "PASS" in report.render()
    assert "exactly one model kind" in report.render()


def test_audit_flags_overlapping_contradictory_intervals():
    # synthetic corrupted stream: both kinds claimed over [1, 2)
    entries = [
        (0.0, 2.0, "nonclassical"),
        (1.0, 3.0, "classical"),
    ]
    conflicts = audit_kind_intervals(entries)
    assert conflicts == [(1.0, "nonclassical", "classical")]

    from nafl.timeline import BCPReport

    report = BCPReport("P", tuple(entries), tuple(conflicts))
    assert not report.passed
    assert "FAIL" in report.render()


def test_audit_accepts_matching_overlaps_and_disjoint_kinds():
    assert audit_kind_intervals([(0, 2, "classical"), (1, 3, "classical")]) == []
    assert audit_kind_intervals([(0, 1, "nonclassical"), (1, 2, "classical")]) == []
    assert audit_kind_intervals([]) == []


def test_format_stamp():
    assert format_stamp(2.0) == "2"
    assert format_stamp(0.0) == "0"
    assert format_stamp(1.5) == "1.5"
    assert format_stamp(math.inf) == "inf"
    assert format_stamp(-math.inf) == "-inf"
