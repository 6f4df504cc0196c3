"""Distinguishability / visibility bookkeeping for scenario timelines.

At every labeled time the tracked path atom is either undecided (no
which-way information exists, full fringe visibility) or decided (full
which-way information, no visibility). Only the endpoint values 0 and 1 are
assigned; the audit then checks the squared sum against the unit bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .theories import PropStatus
from .timeline import Timeline, format_stamp

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

BOUND_TOLERANCE = 1e-12


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DualityReport:
    records: tuple[DualityRecord, ...]
    tolerance: float = BOUND_TOLERANCE

    @property
    def passed(self) -> bool:
        return all(r.squared_sum() <= 1.0 + self.tolerance for r in self.records)

    def rows(self) -> list[tuple[str, str, str, str, str, str]]:
        out = []
        for r in self.records:
            ok = r.squared_sum() <= 1.0 + self.tolerance
            out.append(
                (
                    r.time_label,
                    format_stamp(r.time),
                    format_stamp(r.distinguishability),
                    format_stamp(r.visibility),
                    format_stamp(r.squared_sum()),
                    "PASS" if ok else "FAIL",
                )
            )
        return out

    def render(self) -> str:
        lines = ["duality:"]
        header = ("label", "t", "D", "V", "D^2+V^2", "bound")
        rows = [header] + self.rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for row in rows:
            lines.append(
                "  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            )
        lines.append(f"duality: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def duality_check(records: Sequence[DualityRecord]) -> DualityReport:
    """Audit the unit bound on each record; PASS iff every record obeys it."""
    return DualityReport(tuple(records))
