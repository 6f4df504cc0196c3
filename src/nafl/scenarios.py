"""Scenario DSL: experiment replays as line-oriented text files.

Grammar (one directive per line, read by ``syntax.split_line``: the first
word is the directive, any run of whitespace separates words, keywords match
whole words and ``#`` outside a quoted gloss starts a comment; an error in a
line reports the column of the word it names, or of the formula's token at
fault):

    scenario <name>
    atom <name> "<gloss>"
    location <label> "<gloss>"
    time <label> <real>
    bridge <formula>
    track <atom>
    at <time-label> declare <formula>[, <formula>...]
    at <time-label> retro [<t-start>, <t-end>) <formula>
    at <time-label> expect-reject declare <formula>

Atom and location names and time labels follow the theory reader's name
rule, ``[A-Za-z_][A-Za-z0-9_]*`` (``syntax.NAME``); a name outside it is
reported at its own column, and so is a time label declared twice. Times
must be declared in strictly increasing order. At most one plain
declare event may target a given time label (its formulas open one epoch).
``expect-reject`` marks a declaration that the theory syntax is supposed to
refuse; the run logs the refusal and reports a mismatch if it succeeds.

Built-in scenarios ship with the package: afshar, afshar_nogrid,
delayed_choice, schrodinger_cat, coin_toss, young_two_slit.
"""

from __future__ import annotations

import functools
import math
import os
import re

from .duality import DualityRecord, DualityReport, assign_duality
from .errors import (
    IllegalAxiomError,
    InconsistentTheoryError,
    NaflError,
    ScenarioExecutionError,
    ScenarioParseError,
    ScenarioValidationError,
    read_text,
)
from .record import record
from .syntax import NAME, Formula, atoms_of, is_name, parse_formula_at, split_line
from .theories import Theory
from .timeline import BCPReport, Timeline, format_stamp, format_table


@record
class DeclareEvent:
    line: int
    time_label: str
    formulas: tuple[Formula, ...]
    expect_reject: bool = False

    def describe(self) -> str:
        text = ", ".join(str(f) for f in self.formulas)
        prefix = "expect-reject declare" if self.expect_reject else "declare"
        return f"at {self.time_label} {prefix} {text}"


@record
class RetroEvent:
    line: int
    time_label: str
    start_label: str
    end_label: str
    formula: Formula

    def describe(self) -> str:
        return (
            f"at {self.time_label} retro [{self.start_label}, {self.end_label}) "
            f"{self.formula}"
        )


Event = DeclareEvent | RetroEvent


@record
class Scenario:
    name: str
    atoms: tuple[tuple[str, str], ...]          # (name, gloss) in file order
    locations: tuple[tuple[str, str], ...]      # (label, gloss) metadata only
    times: tuple[tuple[str, float], ...]        # (label, value), increasing
    bridges: tuple[Formula, ...]
    events: tuple[Event, ...]
    tracked: str

    def vocabulary(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.atoms)

    def base_theory(self) -> Theory:
        """Theory over the scenario vocabulary axiomatized by the bridges.

        Built once per scenario, by the validation that checks the bridges,
        and shared by every later call and run.
        """
        return self._base

    @functools.cached_property
    def _base(self) -> Theory:
        return Theory(self.name, self.vocabulary(), self.bridges)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_GLOSS_RE = re.compile(r'^(?P<name>\S+)\s+"(?P<gloss>[^"]*)"\s*$')
_RETRO_RE = re.compile(
    rf"^\[\s*(?P<start>{NAME})\s*,\s*(?P<end>{NAME})\s*\)\s+(?P<formula>.+)$"
)


def _parse_named_gloss(
    rest: str, directive: str, lineno: int, start: int, column: int
) -> tuple[str, str]:
    match = _GLOSS_RE.match(rest)
    if match is None:
        raise ScenarioParseError(
            f"'{directive}' wants: {directive} <name> \"<gloss>\"", lineno, start
        )
    name = match["name"]
    if not is_name(name):
        raise ScenarioParseError(f"bad {directive} name {name!r}", lineno, column)
    return name, match["gloss"]


def parse_scenario(text: str) -> Scenario:
    name: str | None = None
    atoms: list[tuple[str, str]] = []
    locations: list[tuple[str, str]] = []
    times: dict[str, float] = {}  # label -> value, in file order
    bridges: list[Formula] = []
    events: list[Event] = []
    tracked: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = split_line(raw)
        if words is None:
            continue
        directive, start, rest, column = words
        if directive == "scenario":
            if name is not None:
                raise ScenarioParseError("duplicate 'scenario' line", lineno, start)
            if not rest:
                raise ScenarioParseError("'scenario' needs a name", lineno, start)
            name = rest
        elif directive == "atom":
            atoms.append(_parse_named_gloss(rest, "atom", lineno, start, column))
        elif directive == "location":
            locations.append(_parse_named_gloss(rest, "location", lineno, start, column))
        elif directive == "time":
            parts = rest.split()
            if len(parts) != 2:
                raise ScenarioParseError("'time' wants: time <label> <real>", lineno, start)
            label, text = parts
            if not is_name(label):
                raise ScenarioParseError(f"bad time label {label!r}", lineno, column)
            if label in times:
                raise ScenarioParseError(f"duplicate time label {label!r}", lineno, column)
            where = column + len(rest) - len(text)  # the value ends the line
            try:
                value = float(text)
            except ValueError:
                raise ScenarioParseError(f"bad time value {text!r}", lineno, where) from None
            if not math.isfinite(value):
                raise ScenarioParseError(f"time value {text!r} is not finite", lineno, where)
            times[label] = value
        elif directive == "bridge":
            bridges.append(parse_formula_at(rest, lineno, column, ScenarioParseError))
        elif directive == "track":
            if tracked is not None:
                raise ScenarioParseError("duplicate 'track' line", lineno, start)
            tracked = rest
        elif directive == "at":
            events.append(_parse_event(rest, lineno, start, column))
        else:
            raise ScenarioParseError(f"unknown directive {directive!r}", lineno, start)

    if name is None:
        raise ScenarioParseError("missing 'scenario' line", 1)
    scenario = Scenario(
        name,
        tuple(atoms),
        tuple(locations),
        tuple(times.items()),
        tuple(bridges),
        tuple(events),
        tracked or "",
    )
    _validate(scenario)
    return scenario


def _parse_event(rest: str, lineno: int, start: int, column: int) -> Event:
    """The event of an ``at`` line whose directive starts at column ``start``
    and whose ``rest`` at ``column``."""
    timed = split_line(rest, column)
    action = split_line(timed[2], timed[3]) if timed else None
    if action is None:
        raise ScenarioParseError("'at' wants: at <time-label> <event>", lineno, start)
    label = timed[0]
    keyword, start, body, column = action
    if keyword == "expect-reject":
        declare = split_line(body, column)
        if declare is None or declare[0] != "declare":
            raise ScenarioParseError("expect-reject supports only 'declare'", lineno, start)
        formula = parse_formula_at(declare[2], lineno, declare[3], ScenarioParseError)
        return DeclareEvent(lineno, label, (formula,), expect_reject=True)
    if keyword == "declare":
        if not body:
            raise ScenarioParseError("'declare' needs at least one formula", lineno, start)
        formulas = []
        for part in body.split(","):
            formulas.append(parse_formula_at(part, lineno, column, ScenarioParseError))
            column += len(part) + 1
        return DeclareEvent(lineno, label, tuple(formulas))
    if keyword == "retro":
        match = _RETRO_RE.match(body)
        if match is None:
            raise ScenarioParseError(
                "'retro' wants: retro [<t-start>, <t-end>) <formula>", lineno, start
            )
        column += match.start("formula")
        formula = parse_formula_at(match["formula"], lineno, column, ScenarioParseError)
        return RetroEvent(lineno, label, match["start"], match["end"], formula)
    raise ScenarioParseError(f"unknown event {keyword!r}", lineno, start)


def _validate(scenario: Scenario) -> None:
    if not scenario.times:
        raise ScenarioValidationError(f"scenario {scenario.name!r} declares no times")
    times = dict(scenario.times)
    values = [value for _, value in scenario.times]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ScenarioValidationError(
            f"time stamps must be strictly increasing, got {values}"
        )
    atom_names = [name for name, _ in scenario.atoms]
    if len(set(atom_names)) != len(atom_names):
        raise ScenarioValidationError("duplicate atom names")
    vocabulary = set(atom_names)
    if not scenario.tracked:
        raise ScenarioValidationError("missing 'track' line")
    if scenario.tracked not in vocabulary:
        raise ScenarioValidationError(
            f"tracked atom {scenario.tracked!r} is not declared"
        )

    plain_declare_labels: set[str] = set()
    for event in scenario.events:
        if event.time_label not in times:
            raise ScenarioValidationError(
                f"event on line {event.line} references unknown time "
                f"{event.time_label!r}"
            )
        if isinstance(event, DeclareEvent):
            for formula in event.formulas:
                stray = atoms_of(formula) - vocabulary
                if stray:
                    raise ScenarioValidationError(
                        f"event on line {event.line} uses undeclared atom(s) "
                        f"{', '.join(sorted(stray))}"
                    )
            if not event.expect_reject:
                if event.time_label in plain_declare_labels:
                    raise ScenarioValidationError(
                        f"more than one declare event at {event.time_label!r}; "
                        "list the formulas on one line instead"
                    )
                plain_declare_labels.add(event.time_label)
        else:
            for ref in (event.start_label, event.end_label):
                if ref not in times:
                    raise ScenarioValidationError(
                        f"retro event on line {event.line} references unknown "
                        f"time {ref!r}"
                    )
            stray = atoms_of(event.formula) - vocabulary
            if stray:
                raise ScenarioValidationError(
                    f"retro event on line {event.line} uses undeclared atom(s) "
                    f"{', '.join(sorted(stray))}"
                )
            if times[event.start_label] >= times[event.end_label]:
                raise ScenarioValidationError(
                    f"retro event on line {event.line} has an empty interval"
                )
            if times[event.end_label] > times[event.time_label]:
                raise ScenarioValidationError(
                    f"retro event on line {event.line} asserts an interval "
                    "ending after its own time"
                )

    try:
        scenario.base_theory()
    except NaflError as exc:
        raise ScenarioValidationError(f"base theory rejected: {exc}") from exc


# --------------------------------------------------------------------------
# Loading (paths and built-ins)
# --------------------------------------------------------------------------


# The built-ins are files next to this module. importlib.resources would
# find them too, but on Python 3.12 it imports inspect at every start-up.
_BUILTIN_DIR = os.path.join(os.path.dirname(__file__), "builtin")


def builtin_names() -> tuple[str, ...]:
    names = sorted(
        entry[: -len(".scn")]
        for entry in os.listdir(_BUILTIN_DIR)
        if entry.endswith(".scn")
    )
    return tuple(names)


def builtin_scenario(name: str) -> Scenario:
    path = os.path.join(_BUILTIN_DIR, f"{name}.scn")
    if not os.path.isfile(path):
        raise ScenarioValidationError(
            f"no builtin scenario {name!r}; available: {', '.join(builtin_names())}"
        )
    return parse_scenario(read_text(path))


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, or a built-in when the argument names one."""
    if os.path.exists(path_or_name):
        return parse_scenario(read_text(path_or_name))
    if is_name(path_or_name):
        return builtin_scenario(path_or_name)
    raise ScenarioValidationError(f"no scenario file at {path_or_name!r}")


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


@record
class RejectionRecord:
    event: DeclareEvent
    time: float
    kind: str          # "illegal-axiom" | "inconsistency"
    message: str


@record
class TimelineReport:
    scenario: Scenario
    timeline: Timeline
    columns: tuple[tuple[float, float], ...]
    truth_rows: tuple[tuple[str, tuple[str, ...]], ...]
    bcp: BCPReport
    duality_records: tuple[DualityRecord, ...]
    duality: DualityReport
    rejections: tuple[RejectionRecord, ...]
    mismatches: tuple[str, ...]

    @property
    def all_expectations_matched(self) -> bool:
        return not self.mismatches

    def truth_value(self, label: str, t: float) -> str:
        """Table lookup: value of a row at the column containing t."""
        for row_label, cells in self.truth_rows:
            if row_label == label:
                for (start, end), cell in zip(self.columns, cells):
                    if start <= t < end:
                        return cell
        raise KeyError((label, t))

    def truth_table_text(self) -> str:
        header = ["formula"] + [
            f"[{format_stamp(s)}, {format_stamp(e)})" for s, e in self.columns
        ]
        rows = [header] + [[label, *cells] for label, cells in self.truth_rows]
        return "\n".join(["truth table:", *format_table(rows)])

    def render(self) -> str:
        sections = [f"scenario: {self.scenario.name}", f"tracked atom: {self.scenario.tracked}"]
        epoch_lines = ["epochs:"]
        for (start, end), epoch in zip(self.timeline.intervals(), self.timeline.epochs):
            added = (
                "+ " + ", ".join(str(f) for f in epoch.delta)
                if epoch.delta
                else "(no declarations)"
            )
            epoch_lines.append(
                f"  [{format_stamp(start)}, {format_stamp(end)})  {added}"
            )
        sections.append("\n".join(epoch_lines))
        sections.append(self.truth_table_text())
        sections.append(self.bcp.render())
        sections.append(self.duality.render())
        if self.rejections:
            lines = ["rejections:"]
            for record in self.rejections:
                lines.append(
                    f"  at {record.event.time_label} (t={format_stamp(record.time)}): "
                    f"{record.event.describe()} -> rejected ({record.kind}): "
                    f"{record.message}"
                )
            sections.append("\n".join(lines))
        else:
            sections.append("rejections: none")
        if self.mismatches:
            lines = ["expect-reject mismatches:"]
            for text in self.mismatches:
                lines.append(f"  {text}")
            sections.append("\n".join(lines))
        else:
            sections.append("expect-reject: all matched")
        return "\n\n".join(sections) + "\n"


def run_scenario(scenario: Scenario) -> TimelineReport:
    """Execute the event list on a fresh timeline and assemble the report.

    Deliberate rejections (expect-reject events) are logged. An event that
    was supposed to be rejected but succeeded is recorded as a mismatch. An
    unexpected failure of a plain event raises ScenarioExecutionError naming
    the event.
    """
    tl = Timeline.begin(scenario.base_theory(), scenario.times[0][1])
    rejections: list[RejectionRecord] = []
    mismatches: list[str] = []

    times = dict(scenario.times)
    # sorted is stable, so events at one time keep their file order
    for event in sorted(scenario.events, key=lambda event: times[event.time_label]):
        at = times[event.time_label]
        try:
            if isinstance(event, RetroEvent):
                interval = (times[event.start_label], times[event.end_label])
                tl = tl.retro_assert(at, interval, event.formula)
            elif not event.expect_reject:
                tl = tl.declare(at, event.formulas)
            else:
                try:
                    tl.declare(at, event.formulas)
                except (IllegalAxiomError, InconsistentTheoryError) as exc:
                    rejections.append(RejectionRecord(event, at, exc.kind, str(exc)))
                else:
                    mismatches.append(
                        f"{event.describe()}: declaration was expected to be "
                        "rejected but succeeded"
                    )
        except NaflError as exc:
            raise ScenarioExecutionError(event.describe(), exc) from exc

    boundaries = sorted(
        {epoch.start for epoch in tl.epochs}
        | {r.asserted_at for r in tl.retro_assertions}
    )
    columns = tuple(
        (start, end)
        for start, end in zip(boundaries, boundaries[1:] + [float("inf")])
    )

    atom_cells = tl._atom_cells([start for start, _ in columns])
    truth_rows = [(name, atom_cells[name]) for name, _ in scenario.atoms]
    for record in tl.retro_assertions:
        label = (
            f"retro [{format_stamp(record.start)}, {format_stamp(record.end)}) "
            f"{record.formula}"
        )
        cells = tuple(
            "-"
            if start < record.asserted_at
            else tl.truth_at(start, record.formula).value
            for start, _ in columns
        )
        truth_rows.append((label, cells))

    bcp = tl.bcp_check(scenario.tracked)
    records = assign_duality(scenario, tl)
    return TimelineReport(
        scenario,
        tl,
        columns,
        tuple(truth_rows),
        bcp,
        records,
        DualityReport(records),
        tuple(rejections),
        tuple(mismatches),
    )
