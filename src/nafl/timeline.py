"""Time-indexed interpretations of a base theory.

The observer starts from a base theory and appends axiomatic declarations at
strictly increasing finite times. Each declaration opens a new epoch;
within the half-open interval [start, next start) the active interpretation
is the base theory plus every delta declared so far. The first epoch carries
an empty delta: initially the interpretation is the base theory itself.

Truth at a time follows the provability rule: a formula is true at t when the
active interpretation proves it, false when the interpretation proves its
negation, and neither otherwise. Declarations are add-only; re-running a
fresh timeline, not retracting axioms, models a change of mind.

Retroactive assertions record that a formula about a past interval became
provable at some later time; queries before that time still answer neither,
because the formula could not even be stated before the measurement that
grounds it.
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_right, insort
from operator import attrgetter
from typing import Sequence

from .errors import (
    BeforeExperimentError,
    IllegalPropositionError,
    OutOfOrderTimeError,
    TimelineError,
    UnprovableRetroError,
)
from .record import record
from .syntax import Atom, Formula
from .theories import PropStatus, Theory


class TruthValue(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    NEITHER = "neither"


# The provability rule: the truth value of each status.
_TRUTH = {
    PropStatus.PROVABLE: TruthValue.TRUE,
    PropStatus.REFUTABLE: TruthValue.FALSE,
    PropStatus.UNDECIDABLE: TruthValue.NEITHER,
}


def _finite(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise TimelineError(f"time {t} is not finite")
    return t


def format_stamp(t: float) -> str:
    """Stable text for timestamps in reports: integral values print bare."""
    if math.isinf(t):
        return "inf" if t > 0 else "-inf"
    if t == int(t):
        return str(int(t))
    return repr(t)


def format_table(rows: Sequence[Sequence[str]]) -> list[str]:
    """Report lines for rows of cells: indented two spaces, columns aligned left."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return [
        "  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


@record
class Epoch:
    """One declaration step: the delta opened at `start` and the resulting theory."""

    start: float
    delta: tuple[Formula, ...]
    theory: Theory


@record
class RetroAssertion:
    """A formula about [start, end) that became provable at asserted_at.

    `bridge` names the single declared axiom that makes the formula provable
    on top of the base theory, when one declaration alone suffices.
    """

    asserted_at: float
    start: float
    end: float
    formula: Formula
    bridge: Formula | None


@record
class Timeline:
    base: Theory
    epochs: tuple[Epoch, ...]
    retro_assertions: tuple[RetroAssertion, ...] = ()

    @classmethod
    def begin(cls, base: Theory, start: float) -> "Timeline":
        """Fresh timeline whose first epoch adds nothing to the base theory."""
        return cls(base, (Epoch(_finite(start), (), base),))

    # -- declarations --------------------------------------------------------

    def declare(self, at: float, delta: Sequence[Formula]) -> "Timeline":
        """Append an epoch at `at` extending the interpretation by `delta`.

        Raises TimelineError for a non-finite `at` and OutOfOrderTimeError
        unless `at` is after the last epoch start; legality and consistency failures propagate from Theory.extend.
        """
        at = _finite(at)
        last = self.epochs[-1]
        if at <= last.start:
            raise OutOfOrderTimeError(
                f"declaration at {at} does not advance past the last epoch "
                f"start {last.start}"
            )
        theory = last.theory.extend(tuple(delta))
        return Timeline(
            self.base,
            self.epochs + (Epoch(at, tuple(delta), theory),),
            self.retro_assertions,
        )

    # -- lookup ----------------------------------------------------------------

    @property
    def start(self) -> float:
        return self.epochs[0].start

    def epoch_at(self, t: float) -> Epoch:
        _finite(t)
        if t < self.start:
            raise BeforeExperimentError(
                f"time {t} precedes the first epoch at {self.start}"
            )
        return self.epochs[bisect_right(self.epochs, t, key=attrgetter("start")) - 1]

    def theory_at(self, t: float) -> Theory:
        """The active interpretation for the epoch containing t."""
        return self.epoch_at(t).theory

    def intervals(self) -> tuple[tuple[float, float], ...]:
        """Half-open [start, next start) per epoch; the last runs to infinity."""
        starts = [epoch.start for epoch in self.epochs]
        ends = starts[1:] + [math.inf]
        return tuple(zip(starts, ends))

    # -- truth -------------------------------------------------------------------

    def truth_at(self, t: float, phi: Formula) -> TruthValue:
        """Main truth rule: provable -> true, refutable -> false, else neither.

        A registered retroactive formula answers neither before its
        assertion time no matter what the active interpretation proves; any
        other formula must be legal in the active theory syntax.
        """
        theory = self.theory_at(t)  # also validates t
        since = self._retro_since.get(phi)
        if since is not None:
            if t < since:
                return TruthValue.NEITHER
        elif not theory.is_legal(phi):
            raise IllegalPropositionError(
                f"{phi} is outside the theory syntax of {theory.name!r} at time {t}"
            )
        return _TRUTH[theory.classify(phi)]

    def _atom_cells(self, times: Sequence[float]) -> dict[str, tuple[str, ...]]:
        """Per atom name, ``truth_at(t, Atom(name)).value`` at each of `times`,
        none of which is before the start.

        Each time is mapped to its epoch once, and each epoch's theory
        decides all of its atoms in one pass. No legality check is needed:
        an undecided atom is legal by rule (a), a decided one by rule (b).
        """
        starts = [epoch.start for epoch in self.epochs]
        indices = [bisect_right(starts, t) - 1 for t in times]
        value = {status: truth.value for status, truth in _TRUTH.items()}
        passes = {}  # per epoch index, its atoms' values in the order of _columns
        for k in dict.fromkeys(indices):
            statuses = self.epochs[k].theory._atom_statuses()
            passes[k] = [value[status] for status in statuses.values()]
        names = list(self.base._columns)
        cells = dict.fromkeys(names, ())
        cells.update(zip(names, zip(*(passes[k] for k in indices))))
        for phi, since in self._retro_since.items():
            if isinstance(phi, Atom):
                cells[phi.name] = tuple(
                    TruthValue.NEITHER.value if t < since else cell
                    for t, cell in zip(times, cells[phi.name])
                )
        return cells

    # -- retroactive assertions ---------------------------------------------------

    @functools.cached_property
    def _retro_since(self) -> dict[Formula, float]:
        """Each retroactive formula's earliest assertion time, built on first use."""
        since: dict[Formula, float] = {}
        for r in self.retro_assertions:
            since[r.formula] = min(r.asserted_at, since.get(r.formula, math.inf))
        return since

    def retro_assert(
        self, at: float, interval: tuple[float, float], phi: Formula
    ) -> "Timeline":
        """Record that phi, about [interval), is provable from time `at` on.

        The interval must close no later than `at`; the statement is about
        the past, else TimelineError. Raises UnprovableRetroError when the
        interpretation active at `at` does not prove phi.
        """
        at = _finite(at)
        start, end = _finite(interval[0]), _finite(interval[1])
        if not start < end:
            raise TimelineError(f"empty interval [{start}, {end})")
        if end > at:
            raise TimelineError(
                f"interval end {end} lies after the assertion time {at}"
            )
        theory = self.theory_at(at)
        if theory.classify(phi) is not PropStatus.PROVABLE:
            raise UnprovableRetroError(
                f"{phi} is not provable in {theory.name!r} at time {at}"
            )
        # The first declaration that proves phi with the base axioms alone:
        # every model of the base plus it lies inside phi's table.
        base, bridge = self.base, None
        truth = base._table(phi)
        for declared in (d for epoch in self.epochs for d in epoch.delta):
            models = base._models & base._table(declared)
            if (models & truth) == models:
                bridge = declared
                break
        record = RetroAssertion(at, start, end, phi, bridge)
        return Timeline(self.base, self.epochs, self.retro_assertions + (record,))

    # -- complementarity audit -------------------------------------------------------

    def model_kind_intervals(self, tracked: str) -> tuple[tuple[float, float, str], ...]:
        """Per epoch: (start, end, 'classical'|'nonclassical') for the tracked atom."""
        rows = []
        for (start, end), epoch in zip(self.intervals(), self.epochs):
            decided = epoch.theory.atom_status(tracked) is not PropStatus.UNDECIDABLE
            rows.append((start, end, "classical" if decided else "nonclassical"))
        return tuple(rows)

    def bcp_check(self, tracked: str) -> "BCPReport":
        entries = self.model_kind_intervals(tracked)
        conflicts = audit_kind_intervals(entries)
        return BCPReport(tracked, entries, tuple(conflicts))


def audit_kind_intervals(
    entries: Sequence[tuple[float, float, str]],
) -> list[tuple[float, str, str]]:
    """Instants where two overlapping intervals disagree on the model kind.

    Takes a raw (start, end, kind) stream so corrupted or synthetic reports
    can be audited, not only well-formed timelines. Returns a list of
    (instant, kind, other kind) conflicts; empty means single-valued.

    Two intervals conflict when their kinds differ and the later start lies
    before both ends; the instant is that start. A conflict names the kind
    of the entry earlier in the stream first, and conflicts are ordered by
    that entry's place in the stream, then by the other's.

    One sweep in order of start finds them: each kind keeps its open
    intervals as (end, index) in order, and an interval meets the open ones
    of the other kinds. Apart from list moves, the cost is O(n log n) plus
    the number of conflicts.
    """
    open_by_kind: dict[str, list[tuple[float, int]]] = {}
    pairs: list[tuple[int, int]] = []
    for start, j in sorted((s, i) for i, (s, e, _) in enumerate(entries) if s < e):
        _, end, kind = entries[j]
        for other, ends in list(open_by_kind.items()):
            del ends[: bisect_right(ends, (start, math.inf))]  # closed by start
            if not ends:
                del open_by_kind[other]
            elif other != kind:
                pairs.extend((min(i, j), max(i, j)) for _, i in ends)
        insort(open_by_kind.setdefault(kind, []), (end, j))
    pairs.sort()
    return [
        (max(entries[i][0], entries[j][0]), entries[i][2], entries[j][2])
        for i, j in pairs
    ]


@record
class BCPReport:
    """Verdict on whether the timeline ever shows both model kinds at once."""

    tracked: str
    entries: tuple[tuple[float, float, str], ...]
    conflicts: tuple[tuple[float, str, str], ...]

    @property
    def passed(self) -> bool:
        return not self.conflicts

    def render(self) -> str:
        lines = [f"model kinds (tracked atom {self.tracked}):"]
        for start, end, kind in self.entries:
            lines.append(
                f"  [{format_stamp(start)}, {format_stamp(end)})  {kind}"
            )
        if self.passed:
            lines.append(
                "BCP: PASS - the interpretation generates exactly one model "
                "kind (classical or nonclassical) at every instant"
            )
        else:
            lines.append("BCP: FAIL - both model kinds hold at:")
            for instant, kind, other in self.conflicts:
                lines.append(
                    f"  t={format_stamp(instant)}: {kind} and {other} overlap"
                )
        return "\n".join(lines)
