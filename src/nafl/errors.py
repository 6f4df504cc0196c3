"""Exception hierarchy shared by every layer of the package, and the one
reader of input files, which turns an unreadable file into one of them.
A class's ``exit_code`` is what the command line exits with on its error:
1 for input nafl cannot read, 2 for a well-formed statement it rejects."""

from __future__ import annotations


class NaflError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(NaflError):
    """Malformed formula text. Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.raw_message = message
        self.line = line
        self.column = column


class UnknownTokenError(ParseError):
    """A character that belongs to no token of the formula grammar."""


class VocabularyError(NaflError):
    """Not a collection of atom names, or more atoms than the decision procedures support."""


class UnknownAtomError(NaflError):
    """Formula mentions an atom outside the theory's vocabulary."""


class IllegalAxiomError(NaflError):
    """Formula outside the theory syntax was offered as an axiom."""

    exit_code = 2

    def __init__(self, formula_text: str, reason: str):
        super().__init__(f"{formula_text} cannot be added as an axiom: {reason}")
        self.formula_text = formula_text
        self.reason = reason


class InconsistentTheoryError(NaflError):
    """Axiom set has no model."""

    exit_code = 2


class NoSuperpositionError(NaflError):
    """Every atom is decided, so no superposed model exists."""


class TimelineError(NaflError):
    """Base class for timeline-evaluation errors."""


class OutOfOrderTimeError(TimelineError):
    """Declaration timestamp does not advance the last epoch."""


class BeforeExperimentError(TimelineError):
    """Query time precedes the first epoch."""


class IllegalPropositionError(TimelineError):
    """Queried formula is outside the active theory syntax."""


class UnprovableRetroError(TimelineError):
    """Retroactive assertion not provable in the interpretation at its time."""


class ScenarioError(NaflError):
    """Base class for scenario-file errors."""


class ScenarioParseError(ScenarioError, ParseError):
    """Malformed scenario file. Carries 1-based line and column."""


class ScenarioValidationError(ScenarioError):
    """Well-formed scenario file with unsatisfiable references or ordering."""


class ScenarioExecutionError(ScenarioError):
    """A scenario event failed; names the originating event."""

    exit_code = 2

    def __init__(self, event_text: str, cause: Exception):
        super().__init__(f"event '{event_text}' failed: {cause}")
        self.event_text = event_text
        self.cause = cause


class ConfigError(NaflError, ValueError):
    """A simulation setting outside what the sim accepts. Also a ValueError,
    so callers that catch that keep working."""


class TooFewSamplesError(NaflError):
    """Histogram bins too thin for a chi-square test (expected count < 5)."""

    exit_code = 2


class UnreadableFileError(NaflError):
    """A theory, scenario or config file that cannot be read as UTF-8 text."""


def read_text(path: str) -> str:
    """The text of an input file; UnreadableFileError names why it has none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFileError(str(exc)) from None
