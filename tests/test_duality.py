"""Distinguishability/visibility records and the unit bound audit."""

from nafl.duality import BOUND_TOLERANCE, DualityRecord, DualityReport, assign_duality
from nafl.scenarios import builtin_scenario
from nafl.syntax import parse_formula as pf
from nafl.timeline import Timeline


def test_record_arithmetic():
    assert DualityRecord("t0", 0.0, 0.0, 1.0).squared_sum() == 1.0
    assert DualityRecord("t1", 1.0, 1.0, 0.0).squared_sum() == 1.0
    assert DualityRecord("t2", 2.0, 1.0, 1.0).squared_sum() == 2.0


def test_assignment_flips_when_the_path_atom_is_decided():
    scenario = builtin_scenario("afshar")
    tl = Timeline.begin(scenario.base_theory(), 0.0).declare(2.0, [pf("Q")])
    records = assign_duality(scenario, tl)
    by_label = {r.time_label: (r.distinguishability, r.visibility) for r in records}
    assert by_label == {"t0": (0.0, 1.0), "t1": (0.0, 1.0), "t2": (1.0, 0.0)}


def test_endpoint_records_pass_the_bound():
    records = (
        DualityRecord("t0", 0.0, 0.0, 1.0),
        DualityRecord("t1", 1.0, 1.0, 0.0),
    )
    report = DualityReport(records)
    assert report.passed
    rendered = report.render()
    assert "duality: PASS" in rendered
    assert "t0" in rendered and "t1" in rendered


def test_simultaneous_full_knowledge_and_visibility_fails():
    # a record claiming D = V = 1 at once violates the bound
    records = (DualityRecord("t0", 0.0, 1.0, 1.0),)
    report = DualityReport(records)
    assert not report.passed
    assert "FAIL" in report.render()


def test_tolerance_is_tight():
    just_inside = DualityRecord("a", 0.0, 1.0, (BOUND_TOLERANCE / 2) ** 0.5)
    assert DualityReport((just_inside,)).passed
    outside = DualityRecord("b", 0.0, 1.0, (4 * BOUND_TOLERANCE) ** 0.5)
    assert not DualityReport((outside,)).passed
