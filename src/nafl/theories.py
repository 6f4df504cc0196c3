"""Axiomatic theories with a restricted theory syntax.

A theory is a named, finite, consistent axiom set over a declared atom
vocabulary. Classical deduction (the proof syntax) decides provability, but
not every classically well-formed formula is admissible as an axiom or
theorem: the theory syntax is restricted by the layered legality rule.

Layered legality rule. A formula phi is legal in theory T iff

    (a) phi is classically undecided by T's axioms (neither phi nor ~phi
        is entailed), or
    (b) every atom occurring in phi is itself decided (provable or
        refutable) by the axioms.

Consequences: for an undecided atom P, both ``P | ~P`` and ``P & ~P`` are
illegal (they are decided while P is not); an implication over undecided
atoms is legal exactly when it is not already deducible from the axioms;
tautologies built from decided atoms are legal.

Axiom legality is checked incrementally: each axiom is validated against the
theory formed by the axioms before it. Construction order therefore matters,
and an axiom that decides previously undecided atoms (a bridge implication,
say) may itself no longer be legal in the finished theory; it was legal when
added, which is what construction enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import classical
from .errors import (
    BoundExceededError,
    IllegalAxiomError,
    InconsistentTheoryError,
    ParseError,
    UnknownAtomError,
    VocabularyError,
)
from .syntax import And, Atom, Formula, Iff, Implies, Not, Or, atoms_of, parse_formula

# Materializing more formula trees than this is refused by theorems().
_ENUMERATION_CAP = 1_000_000


class PropStatus(enum.Enum):
    """Metamathematical status of a formula relative to a theory.

    Exactly one status holds per (theory, formula) pair.
    """

    PROVABLE = "provable"
    REFUTABLE = "refutable"
    UNDECIDABLE = "undecidable"


def _classify(axioms: Sequence[Formula], phi: Formula) -> PropStatus:
    if classical.entails(axioms, phi):
        return PropStatus.PROVABLE
    if classical.entails(axioms, Not(phi)):
        return PropStatus.REFUTABLE
    return PropStatus.UNDECIDABLE


def _is_legal(axioms: Sequence[Formula], phi: Formula) -> bool:
    if _classify(axioms, phi) is PropStatus.UNDECIDABLE:
        return True
    return all(
        _classify(axioms, Atom(name)) is not PropStatus.UNDECIDABLE
        for name in sorted(atoms_of(phi))
    )


@dataclass(frozen=True)
class Theory:
    """Immutable named axiom set over a fixed vocabulary.

    Construction validates everything: vocabulary size, axiom atoms,
    incremental axiom legality, and consistency. A Theory in hand is
    therefore always consistent.
    """

    name: str
    vocabulary: frozenset[str]
    axioms: tuple[Formula, ...] = ()
    _atom_status: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __init__(self, name: str, vocabulary: Iterable[str], axioms: Iterable[Formula] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vocabulary", frozenset(vocabulary))
        object.__setattr__(self, "axioms", tuple(axioms))
        object.__setattr__(self, "_atom_status", {})
        self._validate()

    def _validate(self) -> None:
        if len(self.vocabulary) > classical.VOCAB_LIMIT:
            raise VocabularyError(
                f"theory {self.name!r} declares {len(self.vocabulary)} atoms; "
                f"the supported bound is {classical.VOCAB_LIMIT}"
            )
        for axiom in self.axioms:
            stray = atoms_of(axiom) - self.vocabulary
            if stray:
                raise UnknownAtomError(
                    f"axiom {axiom} of theory {self.name!r} uses undeclared "
                    f"atom(s) {', '.join(sorted(stray))}"
                )
        for index, axiom in enumerate(self.axioms):
            prior = self.axioms[:index]
            if not _is_legal(prior, axiom):
                raise IllegalAxiomError(
                    str(axiom),
                    "its truth is already fixed by the preceding axioms while "
                    "it contains an atom they leave undecided, so it is "
                    "outside the theory syntax",
                )
        if not classical.is_satisfiable(self.axioms):
            raise InconsistentTheoryError(
                f"axioms of theory {self.name!r} have no model"
            )

    # -- classification -----------------------------------------------------

    def _check_atoms(self, phi: Formula) -> None:
        stray = atoms_of(phi) - self.vocabulary
        if stray:
            raise UnknownAtomError(
                f"formula {phi} uses atom(s) {', '.join(sorted(stray))} "
                f"outside the vocabulary of theory {self.name!r}"
            )

    def atom_status(self, name: str) -> PropStatus:
        """Status of a single atom, cached (theories are immutable)."""
        if name not in self.vocabulary:
            raise UnknownAtomError(
                f"atom {name!r} is outside the vocabulary of theory {self.name!r}"
            )
        status = self._atom_status.get(name)
        if status is None:
            status = _classify(self.axioms, Atom(name))
            self._atom_status[name] = status
        return status

    def classify(self, phi: Formula) -> PropStatus:
        """Provable if entailed, refutable if the negation is, else undecidable."""
        self._check_atoms(phi)
        return _classify(self.axioms, phi)

    def is_legal(self, phi: Formula) -> bool:
        """Membership in this theory's theory syntax (layered rule)."""
        self._check_atoms(phi)
        if self.classify(phi) is PropStatus.UNDECIDABLE:
            return True
        return all(
            self.atom_status(name) is not PropStatus.UNDECIDABLE
            for name in sorted(atoms_of(phi))
        )

    def decided_atoms(self) -> tuple[str, ...]:
        return tuple(
            name
            for name in sorted(self.vocabulary)
            if self.atom_status(name) is not PropStatus.UNDECIDABLE
        )

    def undecided_atoms(self) -> tuple[str, ...]:
        return tuple(
            name
            for name in sorted(self.vocabulary)
            if self.atom_status(name) is PropStatus.UNDECIDABLE
        )

    # -- extension ------------------------------------------------------------

    def extend(self, delta: Sequence[Formula]) -> "Theory":
        """New theory with the extra axioms appended; self is unchanged.

        Each formula must be legal relative to the theory built so far and
        the grown axiom set must stay consistent.
        """
        delta = tuple(delta)
        if not delta:
            return self
        suffix = "+".join(str(d) for d in delta)
        return Theory(f"{self.name}+{suffix}", self.vocabulary, self.axioms + delta)

    # -- theorem enumeration --------------------------------------------------

    def theorems(self, depth_bound: int) -> frozenset[Formula]:
        """All formulas up to depth_bound that are legal and entailed.

        A formula that is entailed is not undecided, so legality can only
        come from layer (b) of the rule: every one of its atoms is decided.
        Enumeration therefore ranges over the decided atoms only; formulas
        touching any undecided atom can never qualify.
        """
        if depth_bound > 4:
            raise BoundExceededError("depth_bound above 4 is not supported")
        if len(self.vocabulary) > 4:
            raise BoundExceededError(
                "theorem enumeration supports vocabularies of at most 4 atoms"
            )
        decided = self.decided_atoms()
        if not decided:
            return frozenset()

        exact: list[set[Formula]] = [{Atom(name) for name in decided}]
        cumulative: set[Formula] = set(exact[0])
        for depth in range(1, depth_bound + 1):
            previous_cumulative = len(cumulative)
            inner = previous_cumulative - len(exact[-1])  # strictly shallower
            projected = (
                len(exact[-1])
                + 4 * (previous_cumulative**2 - inner**2)
                + previous_cumulative
            )
            if projected > _ENUMERATION_CAP:
                raise BoundExceededError(
                    f"depth {depth} would enumerate on the order of "
                    f"{projected} formulas; the cap is {_ENUMERATION_CAP}"
                )
            level: set[Formula] = set()
            for sub in exact[-1]:
                level.add(Not(sub))
            shallow = cumulative - exact[-1]
            for left in cumulative:
                for right in cumulative:
                    if left in shallow and right in shallow:
                        continue  # both strictly shallower: already generated
                    for build in (And, Or, Implies, Iff):
                        level.add(build(left, right))
            level -= cumulative
            exact.append(level)
            cumulative |= level

        models = [
            v
            for v in classical.valuations(tuple(sorted(self.vocabulary)))
            if all(classical.eval_formula(ax, v) for ax in self.axioms)
        ]
        return frozenset(
            phi
            for phi in cumulative
            if all(classical.eval_formula(phi, v) for v in models)
        )


# --------------------------------------------------------------------------
# Theory file format
# --------------------------------------------------------------------------
#
#   theory <name>
#   atoms <a> <b> ...
#   axiom <formula>
#   query <formula>        (optional; used by the check command)
#   # comment


def parse_theory(text: str) -> tuple[Theory, list[Formula]]:
    """Parse the plain-text theory format; returns (theory, query formulas)."""
    name: str | None = None
    vocabulary: list[str] = []
    axioms: list[Formula] = []
    queries: list[Formula] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "theory":
            if name is not None:
                raise ParseError("duplicate 'theory' line", lineno)
            if not rest:
                raise ParseError("'theory' needs a name", lineno)
            name = rest
        elif directive == "atoms":
            names = rest.split()
            if not names:
                raise ParseError("'atoms' needs at least one name", lineno)
            vocabulary.extend(names)
        elif directive in ("axiom", "query"):
            if not rest:
                raise ParseError(f"'{directive}' needs a formula", lineno)
            try:
                formula = parse_formula(rest)
            except ParseError as exc:
                raise ParseError(exc.raw_message, lineno, exc.column) from exc
            (axioms if directive == "axiom" else queries).append(formula)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if name is None:
        raise ParseError("missing 'theory' line", 1)
    return Theory(name, vocabulary, axioms), queries


def load_theory(path: str) -> tuple[Theory, list[Formula]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_theory(handle.read())
