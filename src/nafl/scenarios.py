"""Scenario DSL: experiment replays as line-oriented text files.

Grammar (one directive per line, ``#`` starts a comment):

    scenario <name>
    atom <name> "<gloss>"
    location <label> "<gloss>"
    time <label> <real>
    bridge <formula>
    track <atom>
    at <time-label> declare <formula>[, <formula>...]
    at <time-label> retro [<t-start>, <t-end>) <formula>
    at <time-label> expect-reject declare <formula>

Times must be declared in strictly increasing order. At most one plain
declare event may target a given time label (its formulas open one epoch).
``expect-reject`` marks a declaration that the theory syntax is supposed to
refuse; the run logs the refusal and reports a mismatch if it succeeds.

Built-in scenarios ship with the package: afshar, afshar_nogrid,
delayed_choice, schrodinger_cat, coin_toss, young_two_slit.
"""

from __future__ import annotations

import math
import os
import re

from .duality import DualityRecord, DualityReport, assign_duality, duality_check
from .errors import (
    IllegalAxiomError,
    InconsistentTheoryError,
    NaflError,
    ParseError,
    ScenarioExecutionError,
    ScenarioParseError,
    ScenarioValidationError,
    read_text,
)
from .record import record
from .syntax import Atom, Formula, atoms_of, parse_formula
from .theories import Theory
from .timeline import BCPReport, Timeline, format_stamp


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

    def time_value(self, label: str) -> float:
        for name, value in self.times:
            if name == label:
                return value
        raise KeyError(label)

    def base_theory(self) -> Theory:
        """Theory over the scenario vocabulary axiomatized by the bridges."""
        return Theory(self.name, self.vocabulary(), self.bridges)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_GLOSS_RE = re.compile(r'^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s+"(?P<gloss>[^"]*)"\s*$')
_RETRO_RE = re.compile(
    r"^\[\s*(?P<start>[A-Za-z_][A-Za-z0-9_]*)\s*,\s*"
    r"(?P<end>[A-Za-z_][A-Za-z0-9_]*)\s*\)\s+(?P<formula>.+)$"
)


def _parse_named_gloss(rest: str, directive: str, lineno: int) -> tuple[str, str]:
    match = _GLOSS_RE.match(rest)
    if match is None:
        raise ScenarioParseError(
            f"'{directive}' wants: {directive} <name> \"<gloss>\"", lineno
        )
    return match.group("name"), match.group("gloss")


def _parse_line_formula(text: str, lineno: int) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise ScenarioParseError(exc.raw_message, lineno) from exc


def parse_scenario(text: str) -> Scenario:
    name: str | None = None
    atoms: list[tuple[str, str]] = []
    locations: list[tuple[str, str]] = []
    times: list[tuple[str, float]] = []
    bridges: list[Formula] = []
    events: list[Event] = []
    tracked: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "scenario":
            if name is not None:
                raise ScenarioParseError("duplicate 'scenario' line", lineno)
            if not rest:
                raise ScenarioParseError("'scenario' needs a name", lineno)
            name = rest
        elif directive == "atom":
            atoms.append(_parse_named_gloss(rest, "atom", lineno))
        elif directive == "location":
            locations.append(_parse_named_gloss(rest, "location", lineno))
        elif directive == "time":
            parts = rest.split()
            if len(parts) != 2:
                raise ScenarioParseError("'time' wants: time <label> <real>", lineno)
            try:
                value = float(parts[1])
            except ValueError:
                raise ScenarioParseError(f"bad time value {parts[1]!r}", lineno) from None
            if not math.isfinite(value):
                raise ScenarioParseError(f"time value {parts[1]!r} is not finite", lineno)
            times.append((parts[0], value))
        elif directive == "bridge":
            bridges.append(_parse_line_formula(rest, lineno))
        elif directive == "track":
            if tracked is not None:
                raise ScenarioParseError("duplicate 'track' line", lineno)
            tracked = rest
        elif directive == "at":
            events.append(_parse_event(rest, lineno))
        else:
            raise ScenarioParseError(f"unknown directive {directive!r}", lineno)

    if name is None:
        raise ScenarioParseError("missing 'scenario' line", 1)
    scenario = Scenario(
        name,
        tuple(atoms),
        tuple(locations),
        tuple(times),
        tuple(bridges),
        tuple(events),
        tracked or "",
    )
    _validate(scenario)
    return scenario


def _parse_event(rest: str, lineno: int) -> Event:
    label, _, action = rest.partition(" ")
    action = action.strip()
    if not label or not action:
        raise ScenarioParseError("'at' wants: at <time-label> <event>", lineno)
    if action.startswith("expect-reject"):
        tail = action[len("expect-reject"):].strip()
        if not tail.startswith("declare"):
            raise ScenarioParseError("expect-reject supports only 'declare'", lineno)
        formula = _parse_line_formula(tail[len("declare"):].strip(), lineno)
        return DeclareEvent(lineno, label, (formula,), expect_reject=True)
    if action.startswith("declare"):
        body = action[len("declare"):].strip()
        if not body:
            raise ScenarioParseError("'declare' needs at least one formula", lineno)
        formulas = tuple(
            _parse_line_formula(part.strip(), lineno) for part in body.split(",")
        )
        return DeclareEvent(lineno, label, formulas)
    if action.startswith("retro"):
        body = action[len("retro"):].strip()
        match = _RETRO_RE.match(body)
        if match is None:
            raise ScenarioParseError(
                "'retro' wants: retro [<t-start>, <t-end>) <formula>", lineno
            )
        formula = _parse_line_formula(match.group("formula"), lineno)
        return RetroEvent(lineno, label, match.group("start"), match.group("end"), formula)
    raise ScenarioParseError(f"unknown event {action.split()[0]!r}", lineno)


def _validate(scenario: Scenario) -> None:
    if not scenario.times:
        raise ScenarioValidationError(f"scenario {scenario.name!r} declares no times")
    labels = [label for label, _ in scenario.times]
    if len(set(labels)) != len(labels):
        raise ScenarioValidationError("duplicate time labels")
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
    for bridge in scenario.bridges:
        stray = atoms_of(bridge) - vocabulary
        if stray:
            raise ScenarioValidationError(
                f"bridge {bridge} uses undeclared atom(s) {', '.join(sorted(stray))}"
            )

    label_set = set(labels)
    plain_declare_labels: set[str] = set()
    for event in scenario.events:
        if event.time_label not in label_set:
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
                if ref not in label_set:
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
            if scenario.time_value(event.start_label) >= scenario.time_value(event.end_label):
                raise ScenarioValidationError(
                    f"retro event on line {event.line} has an empty interval"
                )
            if scenario.time_value(event.end_label) > scenario.time_value(event.time_label):
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
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", path_or_name):
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
        rows = [tuple(header)] + [
            (label,) + cells for label, cells in self.truth_rows
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["truth table:"]
        for row in rows:
            lines.append(
                "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def duality_table_text(self) -> str:
        return self.duality.render()

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
        sections.append(self.duality_table_text())
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

    ordered = sorted(
        enumerate(scenario.events),
        key=lambda pair: (scenario.time_value(pair[1].time_label), pair[0]),
    )
    for _, event in ordered:
        at = scenario.time_value(event.time_label)
        if isinstance(event, DeclareEvent):
            if event.expect_reject:
                try:
                    tl.declare(at, event.formulas)
                except (IllegalAxiomError, InconsistentTheoryError) as exc:
                    kind = (
                        "illegal-axiom"
                        if isinstance(exc, IllegalAxiomError)
                        else "inconsistency"
                    )
                    rejections.append(RejectionRecord(event, at, kind, str(exc)))
                except NaflError as exc:
                    raise ScenarioExecutionError(event.describe(), exc) from exc
                else:
                    mismatches.append(
                        f"{event.describe()}: declaration was expected to be "
                        "rejected but succeeded"
                    )
            else:
                try:
                    tl = tl.declare(at, event.formulas)
                except NaflError as exc:
                    raise ScenarioExecutionError(event.describe(), exc) from exc
        else:
            interval = (
                scenario.time_value(event.start_label),
                scenario.time_value(event.end_label),
            )
            try:
                tl = tl.retro_assert(at, interval, event.formula)
            except (NaflError, ValueError) as exc:
                raise ScenarioExecutionError(event.describe(), exc) from exc

    boundaries = sorted(
        {epoch.start for epoch in tl.epochs}
        | {r.asserted_at for r in tl.retro_assertions}
    )
    columns = tuple(
        (start, end)
        for start, end in zip(boundaries, boundaries[1:] + [float("inf")])
    )

    truth_rows: list[tuple[str, tuple[str, ...]]] = []
    for atom_name, _ in scenario.atoms:
        cells = tuple(
            tl.truth_at(start, Atom(atom_name)).value for start, _ in columns
        )
        truth_rows.append((atom_name, cells))
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
        duality_check(records),
        tuple(rejections),
        tuple(mismatches),
    )
