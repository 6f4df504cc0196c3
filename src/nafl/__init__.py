"""Finitary propositional logic with time-varying theories.

Truth here is relative to an axiomatic theory at an instant: a proposition
is true when provable, false when refutable, and otherwise takes no value
while remaining a legal object of study only under a layered syntax rule.
Theories that leave atoms undecided admit a superposed (nonclassical)
model built from their classical models; declaring new axioms moves a
timeline from superposed to classical epochs, and retroactive assertion
rewrites the record only from the moment of proof onward.

The photonsim module grounds the logic in a quantitative two-slit Monte
Carlo with a wire grid parked on the interference minima.
"""

from .classical import (
    entails,
    eval_formula,
    is_satisfiable,
    valuations,
    vocabulary_of,
)
from .duality import (
    BOUND_TOLERANCE,
    DualityRecord,
    DualityReport,
    assign_duality,
    duality_check,
)
from .errors import (
    BeforeExperimentError,
    BoundExceededError,
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
    VocabularyError,
)
from .models import (
    ClassicalModel,
    NonclassicalModel,
    build_nonclassical,
    classical_models,
    nc_eval,
)
from .photonsim import (
    ReconstructionReport,
    SimConfig,
    SimResult,
    analytic_blocked_fraction,
    calibration_preset,
    classical_pdf,
    make_grid,
    quantum_pdf,
    reconstruct,
    simulate,
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
    to_nnf,
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

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "BCPReport",
    "BOUND_TOLERANCE",
    "BeforeExperimentError",
    "BoundExceededError",
    "ClassicalModel",
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
    "duality_check",
    "entails",
    "eval_formula",
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
    "to_nnf",
    "valuations",
    "vocabulary_of",
]
