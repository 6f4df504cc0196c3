"""Scenario DSL parsing, validation, execution, and reports."""

import pytest

from nafl.errors import (
    ParseError,
    ScenarioExecutionError,
    ScenarioParseError,
    ScenarioValidationError,
    UnreadableFileError,
)
from nafl.scenarios import (
    DeclareEvent,
    RetroEvent,
    builtin_names,
    builtin_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from nafl.syntax import parse_formula as pf
from nafl.theories import load_theory

MINIMAL = """\
scenario wire_probe
atom P "the marker is set"
atom Q "the trigger fired"
time t0 0
time t1 1
bridge Q -> P
track P
at t1 declare Q
"""


def test_parse_minimal():
    scenario = parse_scenario(MINIMAL)
    assert scenario.name == "wire_probe"
    assert scenario.vocabulary() == ("P", "Q")
    assert scenario.times == (("t0", 0.0), ("t1", 1.0))
    assert scenario.bridges == (pf("Q -> P"),)
    assert scenario.tracked == "P"
    (event,) = scenario.events
    assert isinstance(event, DeclareEvent)
    assert event.formulas == (pf("Q"),)
    assert not event.expect_reject


def test_parse_all_event_forms():
    text = MINIMAL + "at t1 retro [t0, t1) P\nat t0 expect-reject declare P & ~P\n"
    scenario = parse_scenario(text)
    kinds = [type(e).__name__ for e in scenario.events]
    assert kinds == ["DeclareEvent", "RetroEvent", "DeclareEvent"]
    retro = scenario.events[1]
    assert isinstance(retro, RetroEvent)
    assert (retro.start_label, retro.end_label) == ("t0", "t1")
    assert scenario.events[2].expect_reject


def test_parse_errors_carry_line_numbers():
    bad = MINIMAL.replace("bridge Q -> P", "bridge Q ->")
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(bad)
    assert info.value.line == 6

    with pytest.raises(ScenarioParseError):
        parse_scenario("scenario x\natom P\n")  # gloss is mandatory
    with pytest.raises(ScenarioParseError):
        parse_scenario("scenario x\ntime t0 zero\n")
    for value in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ScenarioParseError, match="not finite"):
            parse_scenario(MINIMAL.replace("time t1 1", f"time t1 {value}"))
    with pytest.raises(ScenarioParseError):
        parse_scenario("atom P \"p\"\n")  # missing the scenario line
    with pytest.raises(ScenarioParseError):
        parse_scenario("scenario x\nfrobnicate\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL + "at t1 retro t0 to t1 P\n")


@pytest.mark.parametrize(
    "event",
    ["at t1 declarex", "at t1 declareP", "at t1 expect-rejectdeclare P", "at t1 retrox [t0, t1) P"],
)
def test_event_keywords_match_whole_words(event):
    with pytest.raises(ScenarioParseError, match="unknown event"):
        parse_scenario(MINIMAL.replace("at t1 declare Q", event))


@pytest.mark.parametrize(
    "event, parsed",
    [
        ("at\tt1\tdeclare\tP", DeclareEvent(9, "t1", (pf("P"),))),
        ("at  t1\t declare Q,\tP", DeclareEvent(9, "t1", (pf("Q"), pf("P")))),
        ("at\tt0\texpect-reject\tdeclare\tP & ~P", DeclareEvent(9, "t0", (pf("P & ~P"),), True)),
        ("at\tt1\tretro\t[t0, t1)\tP", RetroEvent(9, "t1", "t0", "t1", pf("P"))),
    ],
)
def test_words_split_at_any_run_of_spaces_or_tabs(event, parsed):
    text = MINIMAL.replace("at t1 declare Q", "").replace(" ", "\t") + event + "\n"
    assert parse_scenario(text).events == (parsed,)


@pytest.mark.parametrize(
    "line, column",
    [
        ("bridge P &\t@", 12),
        ("at t1 declare Q, P & @", 22),
        ("at t0 expect-reject declare P &", 32),
        ("at\tt0 expect-reject \tdeclare  P | @", 35),
        ("at t1 retro [t0, t1) P | @", 26),
    ],
)
def test_formula_errors_report_their_column_within_the_line(line, column):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(MINIMAL + line + "\n")
    assert isinstance(info.value, ParseError)
    assert (info.value.line, info.value.column) == (9, column)
    assert str(info.value).endswith(f"(line 9, column {column})")


def test_validation_errors():
    with pytest.raises(ScenarioValidationError):  # decreasing times
        parse_scenario(MINIMAL.replace("time t1 1", "time t1 -1"))
    with pytest.raises(ScenarioValidationError):  # unknown tracked atom
        parse_scenario(MINIMAL.replace("track P", "track Z"))
    with pytest.raises(ScenarioValidationError):  # missing track
        parse_scenario(MINIMAL.replace("track P\n", ""))
    with pytest.raises(ScenarioValidationError):  # bridge over undeclared atom
        parse_scenario(MINIMAL.replace("bridge Q -> P", "bridge Z -> P"))
    with pytest.raises(ScenarioValidationError):  # event at unknown time
        parse_scenario(MINIMAL.replace("at t1 declare Q", "at t9 declare Q"))
    with pytest.raises(ScenarioValidationError):  # event over undeclared atom
        parse_scenario(MINIMAL.replace("at t1 declare Q", "at t1 declare Z"))
    with pytest.raises(ScenarioValidationError):  # two declares, one label
        parse_scenario(MINIMAL + "at t1 declare P\n")
    with pytest.raises(ScenarioValidationError):  # retro ends after its time
        parse_scenario(
            MINIMAL.replace("at t1 declare Q", "at t0 retro [t0, t1) P")
        )
    with pytest.raises(ScenarioValidationError):  # duplicate atom
        parse_scenario(MINIMAL + 'atom P "again"\n')


def test_multi_formula_declare_opens_one_epoch():
    text = MINIMAL.replace("at t1 declare Q", "at t1 declare Q, P")
    report = run_scenario(parse_scenario(text))
    assert len(report.timeline.epochs) == 2
    assert report.timeline.epochs[1].delta == (pf("Q"), pf("P"))


def test_builtins_present_and_loadable():
    names = builtin_names()
    assert set(names) >= {
        "afshar",
        "afshar_nogrid",
        "delayed_choice",
        "schrodinger_cat",
        "coin_toss",
        "young_two_slit",
    }
    for name in names:
        scenario = builtin_scenario(name)
        assert scenario.tracked in scenario.vocabulary()


def test_load_scenario_from_path_or_name(tmp_path):
    path = tmp_path / "probe.scn"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_scenario(str(path)).name == "wire_probe"
    assert load_scenario("afshar").name == "afshar"
    with pytest.raises(ScenarioValidationError):
        load_scenario("no_such_builtin")
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(tmp_path / "missing.scn"))


@pytest.mark.parametrize("load", [load_theory, load_scenario])
@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_loaders_raise_a_nafl_error_on_an_unreadable_file(load, kind, tmp_path):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    with pytest.raises(UnreadableFileError):
        load(str(path))


def test_run_produces_epochs_and_truth_rows():
    report = run_scenario(parse_scenario(MINIMAL))
    assert report.columns == ((0.0, 1.0), (1.0, float("inf")))
    assert report.truth_value("P", 0.0) == "neither"
    assert report.truth_value("P", 1.0) == "true"
    assert report.truth_value("Q", 0.5) == "neither"
    assert report.bcp.passed
    assert report.duality.passed
    assert report.all_expectations_matched


def test_unexpected_rejection_is_an_execution_error():
    text = MINIMAL.replace("at t1 declare Q", "at t1 declare P & ~P")
    with pytest.raises(ScenarioExecutionError) as info:
        run_scenario(parse_scenario(text))
    assert "P & ~P" in str(info.value)


def test_expect_reject_at_an_occupied_time_is_an_execution_error():
    # the expect-reject declare lands on an epoch that already starts at t1,
    # which is a timeline error, not a rejection by the theory syntax
    text = MINIMAL + "at t1 expect-reject declare P & ~P\n"
    with pytest.raises(ScenarioExecutionError) as info:
        run_scenario(parse_scenario(text))
    assert "expect-reject declare P & ~P" in str(info.value)


def test_expect_reject_mismatch_is_reported_not_raised():
    text = MINIMAL.replace("at t1 declare Q", "at t1 expect-reject declare Q")
    report = run_scenario(parse_scenario(text))
    assert not report.all_expectations_matched
    assert "expected to be rejected but succeeded" in report.mismatches[0]
    # the stray success is not kept: the timeline still has one epoch
    assert len(report.timeline.epochs) == 1


def test_expect_reject_match_is_logged():
    report = run_scenario(builtin_scenario("afshar"))
    (rejection,) = report.rejections
    assert rejection.kind == "illegal-axiom"
    assert rejection.event.time_label == "t1"
    assert report.all_expectations_matched


def test_report_renders_deterministically():
    first = run_scenario(builtin_scenario("afshar")).render()
    second = run_scenario(builtin_scenario("afshar")).render()
    assert first == second
    for section in ("scenario: afshar", "epochs:", "truth table:",
                    "BCP: PASS", "duality:", "rejections:"):
        assert section in first


def test_afshar_truth_course():
    report = run_scenario(builtin_scenario("afshar"))
    assert report.truth_value("P", 0.0) == "neither"
    assert report.truth_value("P", 1.0) == "neither"
    assert report.truth_value("P", 2.0) == "true"
    assert report.truth_value("R", 2.0) == "neither"
    retro_label = next(
        label for label, _ in report.truth_rows if label.startswith("retro")
    )
    assert report.truth_value(retro_label, 0.0) == "-"
    assert report.truth_value(retro_label, 2.0) == "true"


def test_retro_row_only_appears_from_assertion_time():
    for name in ("schrodinger_cat", "coin_toss"):
        report = run_scenario(builtin_scenario(name))
        retro_label = next(
            label for label, _ in report.truth_rows if label.startswith("retro")
        )
        assert report.truth_value(retro_label, 0.0) == "-"
        assert report.truth_value(retro_label, 1.0) == "-"
        assert report.truth_value(retro_label, 2.0) == "true"


def test_eventless_scenario_runs():
    report = run_scenario(builtin_scenario("young_two_slit"))
    assert len(report.timeline.epochs) == 1
    assert report.truth_value("P", 0.0) == "neither"
    assert report.bcp.passed
