"""Distinguishability / visibility bookkeeping for scenario timelines.

At every labeled time the tracked path atom is either undecided (no
which-way information exists, full fringe visibility) or decided (full
which-way information, no visibility). Only the endpoint values 0 and 1 are
assigned; the audit then checks the squared sum against the unit bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .record import record
from .theories import PropStatus
from .timeline import Timeline, format_stamp, format_table

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

BOUND_TOLERANCE = 1e-12


@record
class DualityRecord:
    time_label: str
    time: float
    distinguishability: float
    visibility: float

    def squared_sum(self) -> float:
        return self.distinguishability**2 + self.visibility**2


def _endpoints(status: PropStatus) -> tuple[float, float]:
    """(D, V) for a path atom's status: undecided -> (0, 1), decided -> (1, 0)."""
    return (0.0, 1.0) if status is PropStatus.UNDECIDABLE else (1.0, 0.0)


def assign_duality(scenario: "Scenario", tl: Timeline) -> tuple[DualityRecord, ...]:
    """One record per labeled time, from the tracked atom's status there."""
    return tuple(
        DualityRecord(
            label, value, *_endpoints(tl.theory_at(value).atom_status(scenario.tracked))
        )
        for label, value in scenario.times
    )


def _within_bound(r: DualityRecord) -> bool:
    return r.squared_sum() <= 1.0 + BOUND_TOLERANCE


@record
class DualityReport:
    """The unit-bound audit of a scenario's records: PASS iff every record
    obeys D^2 + V^2 <= 1."""

    records: tuple[DualityRecord, ...]

    @property
    def passed(self) -> bool:
        return all(map(_within_bound, self.records))

    def rows(self) -> list[tuple[str, str, str, str, str, str]]:
        return [
            (
                r.time_label,
                format_stamp(r.time),
                format_stamp(r.distinguishability),
                format_stamp(r.visibility),
                format_stamp(r.squared_sum()),
                "PASS" if _within_bound(r) else "FAIL",
            )
            for r in self.records
        ]

    def render(self) -> str:
        header = ("label", "t", "D", "V", "D^2+V^2", "bound")
        verdict = f"duality: {'PASS' if self.passed else 'FAIL'}"
        return "\n".join(["duality:", *format_table([header, *self.rows()]), verdict])
