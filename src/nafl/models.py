"""Classical model enumeration and superposed-model evaluation.

A consistent theory that leaves atoms undecided has several classical models.
The superposed model is their superposition: an undecided atom counts as
nonclassically true together with its negation, because neither has been
declared. Evaluation of compound formulas is paraconsistent; a contradiction
over a superposed atom holds without everything else following from it.
"""

from __future__ import annotations

from typing import Mapping

from . import classical
from .errors import NoSuperpositionError, UnknownAtomError
from .record import record
from .syntax import And, Atom, Formula, Iff, Implies, Not, Or, atoms_of
from .theories import PropStatus, Theory


@record
class ClassicalModel:
    """One total valuation, stored as a sorted tuple so models hash and compare."""

    assignment: tuple[tuple[str, bool], ...]

    @classmethod
    def from_valuation(cls, valuation: Mapping[str, bool]) -> "ClassicalModel":
        return cls(tuple(sorted(valuation.items())))

    def value(self, name: str) -> bool:
        for atom, val in self.assignment:
            if atom == name:
                return val
        raise UnknownAtomError(f"atom {name!r} not in this model")

    def as_dict(self) -> dict[str, bool]:
        return dict(self.assignment)


def classical_models(theory: Theory) -> frozenset[ClassicalModel]:
    """Every valuation of the vocabulary satisfying all axioms."""
    vocab = tuple(sorted(theory.vocabulary))
    return frozenset(
        ClassicalModel.from_valuation(classical.valuation(index, vocab))
        for index in classical.set_bits(theory._models)
    )


@record
class NonclassicalModel:
    """Superposition of the classical models of a theory.

    For each atom the generating theory's status is recorded. A positive
    literal is nonclassically true iff the negation is not provable; a
    negative literal is nonclassically true iff the atom is not provable.
    Superposed (undecided) atoms therefore make both literals true at once.
    """

    theory_name: str
    components: frozenset[ClassicalModel]
    atom_status: tuple[tuple[str, PropStatus], ...]

    @property
    def superposed_atoms(self) -> frozenset[str]:
        return frozenset(
            name for name, status in self.atom_status
            if status is PropStatus.UNDECIDABLE
        )

    def literal_truth(self, name: str, negated: bool = False) -> bool:
        for atom, status in self.atom_status:
            if atom == name:
                if negated:
                    return status is not PropStatus.PROVABLE
                return status is not PropStatus.REFUTABLE
        raise UnknownAtomError(f"atom {name!r} not in this model's vocabulary")


def build_nonclassical(theory: Theory) -> NonclassicalModel:
    """Superposed model for a consistent theory with an undecided atom.

    Raises NoSuperpositionError when every atom is decided (the theory's
    single model kind is classical).
    """
    statuses = tuple(
        (name, theory.atom_status(name)) for name in sorted(theory.vocabulary)
    )
    superposed = [n for n, s in statuses if s is PropStatus.UNDECIDABLE]
    if not superposed:
        raise NoSuperpositionError(
            f"every atom of theory {theory.name!r} is decided; "
            "the model is classical, not superposed"
        )
    components = classical_models(theory)
    for name in superposed:
        values = {model.value(name) for model in components}
        if values != {True, False}:
            raise AssertionError(
                f"undecided atom {name!r} does not split the classical models"
            )
    return NonclassicalModel(theory.name, components, statuses)


def nc_eval(model: NonclassicalModel, phi: Formula) -> bool:
    """Paraconsistent evaluation: negations pushed down to literals.

    Agrees with looking up literals in to_nnf(phi), but visits each node of
    phi once instead of expanding -> and <->, so its cost is linear in the
    size of phi.
    """
    known = {name for name, _ in model.atom_status}
    stray = atoms_of(phi) - known
    if stray:
        raise UnknownAtomError(
            f"formula {phi} uses atom(s) {', '.join(sorted(stray))} "
            "outside the model's vocabulary"
        )
    return _nc_pair(model, phi)[0]


def _nc_pair(model: NonclassicalModel, node: Formula) -> tuple[bool, bool]:
    """(truth of node, truth of its negation) in the superposed model."""
    if isinstance(node, Atom):
        return model.literal_truth(node.name), model.literal_truth(node.name, negated=True)
    if isinstance(node, Not):
        holds, fails = _nc_pair(model, node.operand)
        return fails, holds
    left, not_left = _nc_pair(model, node.left)
    right, not_right = _nc_pair(model, node.right)
    if isinstance(node, And):
        return left and right, not_left or not_right
    if isinstance(node, Or):
        return left or right, not_left and not_right
    if isinstance(node, Implies):
        return not_left or right, left and not_right
    assert isinstance(node, Iff)
    return (
        (not_left or right) and (left or not_right),
        (left and not_right) or (not_left and right),
    )
