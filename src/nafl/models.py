"""Classical models read from a theory's table, and the superposed model.

A consistent theory that leaves atoms undecided has several classical models,
one per set bit of its table of models. The superposed model is their
superposition, evaluated in Priest's Logic of Paradox from the atom statuses
the theory has decided: an undecided atom counts as nonclassically true
together with its negation, because neither has been declared. A
contradiction over a superposed atom holds without everything else following.
"""

from __future__ import annotations

import functools
from typing import Mapping

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
    """Every valuation satisfying all axioms, one per set bit v of the theory's
    table; bit k of v is the value of the k-th atom in sorted order."""
    pairs = [((name, False), (name, True)) for name in sorted(theory.vocabulary)]
    bits = bin(theory._models)[:1:-1]
    return frozenset(
        ClassicalModel(tuple([pair[index >> k & 1] for k, pair in enumerate(pairs)]))
        for index, bit in enumerate(bits)
        if bit == "1"
    )


@record
class NonclassicalModel:
    """Superposition of the classical models of a theory, held as the
    theory's atom statuses alone: nothing here enumerates those models.

    For each atom the generating theory's status is recorded. A positive
    literal is nonclassically true iff the negation is not provable; a
    negative literal is nonclassically true iff the atom is not provable.
    Superposed (undecided) atoms therefore make both literals true at once.
    """

    theory_name: str
    atom_status: tuple[tuple[str, PropStatus], ...]

    @functools.cached_property
    def _literals(self) -> dict[str, tuple[bool, bool]]:
        """Atom -> (truth of the atom, truth of its negation)."""
        return {
            name: (status is not PropStatus.REFUTABLE, status is not PropStatus.PROVABLE)
            for name, status in self.atom_status
        }

    @property
    def superposed_atoms(self) -> frozenset[str]:
        return frozenset(
            name for name, status in self.atom_status
            if status is PropStatus.UNDECIDABLE
        )

    def literal_truth(self, name: str, negated: bool = False) -> bool:
        try:
            holds, fails = self._literals[name]
        except KeyError:
            raise UnknownAtomError(f"atom {name!r} not in this model's vocabulary") from None
        return fails if negated else holds


def build_nonclassical(theory: Theory) -> NonclassicalModel:
    """Superposed model for a consistent theory with an undecided atom.

    Raises NoSuperpositionError when every atom is decided (the theory's
    single model kind is classical).
    """
    statuses = tuple((name, theory.atom_status(name)) for name in sorted(theory.vocabulary))
    if all(status is not PropStatus.UNDECIDABLE for _, status in statuses):
        raise NoSuperpositionError(
            f"every atom of theory {theory.name!r} is decided; "
            "the model is classical, not superposed"
        )
    return NonclassicalModel(theory.name, statuses)


def nc_eval(model: NonclassicalModel, phi: Formula) -> bool:
    """Paraconsistent evaluation: negations pushed down to literals.

    Agrees with looking up literals in the negation normal form of phi
    (``to_nnf`` in tests/oracles.py) and with three-valued LP evaluation
    (``lp_eval`` there), but visits each node of phi once instead of
    expanding -> and <->, so its cost is linear in the size of phi.
    """
    literals = model._literals
    try:
        return _nc_pair(literals, phi)[0]
    except KeyError:
        stray = atoms_of(phi).difference(literals)
        raise UnknownAtomError(
            f"formula {phi} uses atom(s) {', '.join(sorted(stray))} "
            "outside the model's vocabulary"
        ) from None


def _nc_pair(literals: Mapping[str, tuple[bool, bool]], node: Formula) -> tuple[bool, bool]:
    """(truth of node, truth of its negation) in the superposed model."""
    if isinstance(node, Atom):
        return literals[node.name]
    if isinstance(node, Not):
        holds, fails = _nc_pair(literals, node.operand)
        return fails, holds
    left, not_left = _nc_pair(literals, node.left)
    right, not_right = _nc_pair(literals, node.right)
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
