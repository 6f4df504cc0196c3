"""Scenario DSL parsing, validation, execution, and reports."""

import glob
import os
import random
import sys

import pytest

import nafl
from nafl.errors import (
    NaflError,
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
from nafl.syntax import Atom
from nafl.syntax import parse_formula as pf
from nafl.theories import Theory, load_theory

GOLDEN_SCENARIOS = os.path.join(os.path.dirname(__file__), "golden", "scenarios")
BUILTIN_DIR = os.path.join(os.path.dirname(nafl.__file__), "builtin")

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


@pytest.mark.parametrize(
    "line, column, message",
    [
        ("at t1 declareQ", 7, "unknown event 'declareQ'"),
        ("\tat  t1\tfrob P", 9, "unknown event 'frob'"),
        ("  at t1", 3, "'at' wants"),
        ("at t1 expect-reject retro [t0, t1) P", 7, "supports only 'declare'"),
        ("at t1 declare", 7, "needs at least one formula"),
        ("at t1  retro t0 to t1 P", 8, "'retro' wants"),
        ("  frobnicate x", 3, "unknown directive 'frobnicate'"),
        ("time t2 two", 9, "bad time value 'two'"),
        ("time  t2\tinf", 10, "time value 'inf' is not finite"),
        (" time t2", 2, "'time' wants"),
        ("\tatom R", 2, "'atom' wants"),
        ("location L # no gloss", 1, "'location' wants"),
        ("time t-2 2", 6, "bad time label 't-2'"),
        ("time\t2t 2", 6, "bad time label '2t'"),
        ('atom  1x "one"', 7, "bad atom name '1x'"),
        ('location a-b "left"', 10, "bad location name 'a-b'"),
        ("   track Q", 4, "duplicate 'track' line"),
        (" scenario again", 2, "duplicate 'scenario' line"),
        ("time  t0 5", 7, "duplicate time label 't0'"),
    ],
)
def test_line_errors_report_the_column_of_the_word_they_name(line, column, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        parse_scenario(MINIMAL + line + "\n")
    assert (info.value.line, info.value.column) == (9, column)


def test_a_quoted_gloss_may_hold_a_hash():
    text = MINIMAL + 'atom R "photon # 1 passed"  # the comment starts here\n'
    assert parse_scenario(text).atoms[-1] == ("R", "photon # 1 passed")
    with pytest.raises(ScenarioParseError, match="'atom' wants"):  # unclosed quote
        parse_scenario(MINIMAL + 'atom R "photon # 1 passed\n')


def test_validation_errors():
    with pytest.raises(ScenarioValidationError):  # decreasing times
        parse_scenario(MINIMAL.replace("time t1 1", "time t1 -1"))
    with pytest.raises(ScenarioValidationError):  # unknown tracked atom
        parse_scenario(MINIMAL.replace("track P", "track Z"))
    with pytest.raises(ScenarioValidationError):  # missing track
        parse_scenario(MINIMAL.replace("track P\n", ""))
    # bridge over undeclared atom: the base theory refuses it
    with pytest.raises(ScenarioValidationError, match="base theory rejected: .* undeclared atom"):
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
    retro = {
        "at t1 retro [t0, t9) P": "retro event on line 8 references unknown time 't9'",
        "at t1 retro [t0, t1) Z": "retro event on line 8 uses undeclared atom\\(s\\) Z",
        "at t1 retro [t1, t1) P": "retro event on line 8 has an empty interval",
    }
    for event, message in retro.items():
        with pytest.raises(ScenarioValidationError, match=message):
            parse_scenario(MINIMAL.replace("at t1 declare Q", event))
    with pytest.raises(ScenarioValidationError, match="'wire_probe' declares no times"):
        parse_scenario(MINIMAL.replace("time t0 0\ntime t1 1\n", ""))
    with pytest.raises(ScenarioParseError, match="'scenario' needs a name"):
        parse_scenario(MINIMAL.replace("scenario wire_probe", "scenario"))


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


def retro_chain(events):
    """A scenario that re-asserts P about [t0, t1) at each of `events` times."""
    lines = [MINIMAL.replace("time t1 1\n", "")]
    lines += [f"time t{k} {k}" for k in range(1, events + 1)]
    lines += [f"at t{k} retro [t0, t1) P" for k in range(1, events + 1)]
    return parse_scenario("\n".join(lines) + "\n")


def nafl_lines_executed(scenario):
    """The lines of nafl's own code that run_scenario executes: a count of
    the work done, which the host's load does not move."""
    package = os.path.dirname(nafl.__file__) + os.sep
    count = 0

    def in_frame(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run_scenario(scenario)
    finally:
        sys.settrace(previous)
    return count


def test_retro_events_cost_no_more_than_the_table_they_fill():
    # The report has one row per retro event and one column per time, so
    # doubling the events quadruples its cells. 6x leaves room for that, and
    # fails a per-cell scan of every retro assertion (7.4x).
    small, large = retro_chain(100), retro_chain(200)
    assert len(run_scenario(large).truth_rows) == 2 + 200
    assert nafl_lines_executed(large) < 6 * nafl_lines_executed(small)


def repeated_declares(events):
    """A scenario that declares P again at each of `events` times."""
    lines = ["scenario repeat", 'atom P "the marker is set"', "track P"]
    lines += [f"time t{k} {k}" for k in range(events + 1)]
    lines += [f"at t{k} declare P" for k in range(1, events + 1)]
    return parse_scenario("\n".join(lines) + "\n")


def test_repeated_declares_cost_work_linear_in_the_epochs():
    # Every stage of a run, the audit of model kinds included, is linear in
    # the epochs here, so doubling them doubles the work (2.0x). An audit
    # that compares every pair of epochs reads 3.9x.
    small, large = repeated_declares(2000), repeated_declares(4000)
    assert nafl_lines_executed(large) <= 2.5 * nafl_lines_executed(small)


def chain_scenario(seed):
    """A random chain: bridges L(i+1) -> L(i) over literals L(i) of A<i>, then
    declarations that force a prefix (L(j)) or a suffix (~L(j)) of the chain,
    kept apart so they never conflict, and retro assertions of literals and
    conjunctions that the declarations so far prove."""
    rng = random.Random(seed)
    size = rng.randint(2, 8)
    signs = [rng.random() < 0.5 for _ in range(size)]

    def lit(i, positive=True):
        return f"A{i}" if signs[i] == positive else f"~A{i}"

    split = rng.randint(0, size)  # prefixes end below it, suffixes start at it
    steps = rng.randint(0, 5)
    lines = ["scenario chain", *(f'atom A{i} "link {i}"' for i in range(size))]
    lines += [f"time t{k} {k}" for k in range(steps + 1)]
    lines += [f"bridge {lit(i + 1)} -> {lit(i)}" for i in range(size - 1)]
    lines.append(f"track A{rng.randrange(size)}")
    proved = -1  # the highest position proved by a prefix declaration
    for k in range(1, steps + 1):
        if split < size and (split == 0 or rng.random() < 0.5):
            lines.append(f"at t{k} declare {lit(rng.randrange(split, size), False)}")
        elif split > 0:
            j = rng.randrange(split)
            proved = max(proved, j)
            lines.append(f"at t{k} declare {lit(j)}")
        if proved >= 0 and rng.random() < 0.7:
            i, j = rng.randint(0, proved), rng.randint(0, proved)
            formula = lit(i) if rng.random() < 0.5 else f"{lit(i)} & {lit(j)}"
            lines.append(f"at t{k} retro [t0, t{rng.randint(1, k)}) {formula}")
    return "\n".join(lines) + "\n"


def runnable_scenario_texts():
    """Every built-in, every golden scenario that runs, and random chains."""
    paths = sorted(glob.glob(os.path.join(BUILTIN_DIR, "*.scn")))
    paths += sorted(glob.glob(os.path.join(GOLDEN_SCENARIOS, "*.scn")))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts + [chain_scenario(seed) for seed in range(60)]


def test_every_report_cell_is_the_timelines_truth():
    ran = 0
    for text in runnable_scenario_texts():
        try:
            report = run_scenario(parse_scenario(text))
        except NaflError:
            continue
        ran += 1
        tl = report.timeline
        rows = [(name, Atom(name), None) for name, _ in report.scenario.atoms]
        rows += [(None, r.formula, r.asserted_at) for r in tl.retro_assertions]
        assert len(report.truth_rows) == len(rows)
        for (label, cells), (name, phi, asserted_at) in zip(report.truth_rows, rows):
            assert name is None or label == name
            for (start, _), cell in zip(report.columns, cells, strict=True):
                if asserted_at is not None and start < asserted_at:
                    assert cell == "-"
                else:
                    assert cell == tl.truth_at(start, phi).value, (label, start)
    assert ran >= 6 + 1 + 60  # the built-ins, tabs.scn and the chains


def test_a_parse_and_a_run_build_one_base_theory(monkeypatch):
    built = []
    init = Theory.__init__
    monkeypatch.setattr(
        Theory, "__init__", lambda self, *args: built.append(args[0]) or init(self, *args)
    )
    for name in builtin_names():
        built.clear()
        scenario = builtin_scenario(name)
        report = run_scenario(scenario)
        assert built == [name]
        assert scenario.base_theory() is report.timeline.base


def with_idle_atoms(text, count):
    """The scenario with `count` more atoms that no formula names."""
    return text + "".join(f'atom Idle{k} "unused"\n' for k in range(count))


def test_atom_rows_cost_one_pass_per_epoch_and_no_table(table_calls, monkeypatch):
    passes = []
    decide = Theory._atom_statuses
    monkeypatch.setattr(Theory, "_atom_statuses", lambda self: passes.append(self) or decide(self))
    for name in builtin_names():
        with open(os.path.join(BUILTIN_DIR, f"{name}.scn"), encoding="utf-8") as handle:
            text = handle.read()
        costs = []
        for extra in (0, 8):
            table_calls.clear()
            passes.clear()
            report = run_scenario(parse_scenario(with_idle_atoms(text, extra)))
            assert [id(t) for t in passes] == [id(e.theory) for e in report.timeline.epochs]
            costs.append(len(table_calls))
        # eight more rows, one cell per column each, and no more tables
        assert costs[0] == costs[1], name


def test_atoms_leave_no_memo_entry_and_cost_no_table(table_calls):
    timeline = run_scenario(builtin_scenario("afshar")).timeline
    for theory in [timeline.base] + [epoch.theory for epoch in timeline.epochs]:
        for name in sorted(theory.vocabulary):
            table_calls.clear()
            theory.classify(Atom(name))
            theory.atom_status(name)
            assert table_calls == [], (theory.name, name)
            theory.is_legal(Atom(name))
            theory.is_legal(pf(f"{name} | ~{name}"))
        atom_keys = [key for key in theory._status if isinstance(key, (str, Atom))]
        assert atom_keys == [], theory.name


def test_eventless_scenario_runs():
    report = run_scenario(builtin_scenario("young_two_slit"))
    assert len(report.timeline.epochs) == 1
    assert report.truth_value("P", 0.0) == "neither"
    assert report.bcp.passed
