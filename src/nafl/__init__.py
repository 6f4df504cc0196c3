"""Finitary propositional logic with time-varying theories.

Truth here is relative to an axiomatic theory at an instant: a proposition
is true when provable, false when refutable, and otherwise takes no value
while remaining a legal object of study only under a layered syntax rule.
Theories that leave atoms undecided admit a superposed (nonclassical)
model built from their classical models; declaring new axioms moves a
timeline from superposed to classical epochs, and retroactive assertion
rewrites the record only from the moment of proof onward.

The photonsim module grounds the logic in a quantitative two-slit Monte
Carlo with a wire grid parked on the interference minima. It is the only
part that needs numpy, so it loads on first use: ``import nafl`` registers
it as a lazy module, and the first attribute read from it (``nafl.simulate``
or ``nafl.photonsim.SimConfig``, say) executes it.
"""

import importlib.util
import sys
import types

from .classical import entails, is_satisfiable, vocabulary_of
from .duality import BOUND_TOLERANCE, DualityRecord, DualityReport, assign_duality
from .errors import (
    BeforeExperimentError,
    ConfigError,
    IllegalAxiomError,
    IllegalPropositionError,
    InconsistentTheoryError,
    NaflError,
    NoSuperpositionError,
    OutOfOrderTimeError,
    ParseError,
    ScenarioError,
    ScenarioExecutionError,
    ScenarioParseError,
    ScenarioValidationError,
    TimelineError,
    TooFewSamplesError,
    UnknownAtomError,
    UnknownTokenError,
    UnprovableRetroError,
    UnreadableFileError,
    VocabularyError,
)
from .models import (
    ClassicalModel,
    NonclassicalModel,
    build_nonclassical,
    classical_models,
    nc_eval,
)
from .scenarios import (
    Scenario,
    TimelineReport,
    builtin_names,
    builtin_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    format_formula,
    parse_formula,
)
from .theories import PropStatus, Theory, load_theory, parse_theory
from .timeline import (
    BCPReport,
    Epoch,
    RetroAssertion,
    Timeline,
    TruthValue,
    audit_kind_intervals,
    format_stamp,
)


class _LazyModule(types.ModuleType):
    """A module that executes on the first read of a name it lacks.

    Unlike importlib.util.LazyLoader's module, it stays lazy when executing
    fails, so without numpy every read raises the same ModuleNotFoundError.
    The first read takes no lock; simulate notes why its worker threads
    cannot race it.
    """

    def __getattr__(self, name: str):
        self.__spec__.loader.exec_module(self)
        self.__class__ = types.ModuleType
        return getattr(self, name)


# Registered in sys.modules now, executed on its first attribute read.
_spec = importlib.util.find_spec(f"{__name__}.photonsim")
photonsim = importlib.util.module_from_spec(_spec)
photonsim.__class__ = _LazyModule
sys.modules[_spec.name] = photonsim
del _spec

# Re-exported from photonsim, served by __getattr__ so numpy loads only
# when one of them is used.
_SIM_NAMES = frozenset({
    "ReconstructionReport",
    "SimConfig",
    "SimResult",
    "analytic_blocked_fraction",
    "calibration_preset",
    "classical_pdf",
    "make_grid",
    "quantum_pdf",
    "reconstruct",
    "simulate",
})


def __getattr__(name: str):
    if name in _SIM_NAMES:
        return getattr(photonsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SIM_NAMES)


__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "BCPReport",
    "BOUND_TOLERANCE",
    "BeforeExperimentError",
    "ClassicalModel",
    "ConfigError",
    "DualityRecord",
    "DualityReport",
    "Epoch",
    "Formula",
    "Iff",
    "IllegalAxiomError",
    "IllegalPropositionError",
    "Implies",
    "InconsistentTheoryError",
    "NaflError",
    "NoSuperpositionError",
    "NonclassicalModel",
    "Not",
    "Or",
    "OutOfOrderTimeError",
    "ParseError",
    "PropStatus",
    "ReconstructionReport",
    "RetroAssertion",
    "Scenario",
    "ScenarioError",
    "ScenarioExecutionError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SimConfig",
    "SimResult",
    "Theory",
    "Timeline",
    "TimelineError",
    "TimelineReport",
    "TooFewSamplesError",
    "TruthValue",
    "UnknownAtomError",
    "UnknownTokenError",
    "UnprovableRetroError",
    "UnreadableFileError",
    "VocabularyError",
    "analytic_blocked_fraction",
    "assign_duality",
    "atoms_of",
    "audit_kind_intervals",
    "build_nonclassical",
    "builtin_names",
    "builtin_scenario",
    "calibration_preset",
    "classical_models",
    "classical_pdf",
    "entails",
    "format_formula",
    "format_stamp",
    "is_satisfiable",
    "load_scenario",
    "load_theory",
    "make_grid",
    "nc_eval",
    "parse_formula",
    "parse_scenario",
    "parse_theory",
    "quantum_pdf",
    "reconstruct",
    "run_scenario",
    "simulate",
    "vocabulary_of",
]
