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

A Theory in hand is therefore already validated, so ``extend`` checks only
the delta, each formula against the theory grown so far, and never the
axioms it inherits. A Theory computes each formula's table at most once:
statuses are memoized per Theory, and the layered rule reads the same memo.
One pass can decide every atom at once, since an atom's table is its
column; it enters each atom's status in that memo.

Truth tables. A Theory holds the table of its models (see ``classical``):
the AND of its axioms' tables over its sorted vocabulary, which every
extension narrows by one AND per new axiom. A formula with table t is
provable when every model is in t, refutable when none is, and undecidable
otherwise, so each decision costs one table and no search.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from . import classical
from .errors import (
    IllegalAxiomError,
    InconsistentTheoryError,
    ParseError,
    UnknownAtomError,
    VocabularyError,
    read_text,
)
from .record import record
from .syntax import Atom, Formula, atoms_of, is_name, parse_formula_at, split_line


class PropStatus(enum.Enum):
    """Metamathematical status of a formula relative to a theory.

    Exactly one status holds per (theory, formula) pair.
    """

    PROVABLE = "provable"
    REFUTABLE = "refutable"
    UNDECIDABLE = "undecidable"


def _status_of(models: int, truth: int) -> PropStatus:
    """The status rule, for a formula whose table is truth against a theory
    whose table of models is models."""
    held = models & truth
    if held == models:
        return PropStatus.PROVABLE
    if not held:
        return PropStatus.REFUTABLE
    return PropStatus.UNDECIDABLE


@record
class Theory:
    """Immutable named axiom set over a fixed vocabulary.

    Construction validates everything: atom names, vocabulary size, axiom atoms,
    incremental axiom legality, and consistency. A Theory in hand is
    therefore always consistent, so its table of models is never empty, and
    every status it decides is memoized.
    """

    name: str
    vocabulary: frozenset[str]
    axioms: tuple[Formula, ...] = ()
    # Private, so outside eq, hash and repr: the memo (statuses by formula,
    # an atom's by its name), the table of models, and the vocabulary's
    # columns and full table.
    _status: dict
    _models: int
    _columns: dict
    _full: int

    def __init__(self, name: str, vocabulary: Iterable[str], axioms: Iterable[Formula] = ()):
        if isinstance(vocabulary, str):
            raise VocabularyError(f"theory {name!r} wants atom names, not the string {vocabulary!r}")
        vocabulary = frozenset(vocabulary)
        bad = sorted(atom for atom in vocabulary if not is_name(atom))
        if bad:
            raise VocabularyError(f"theory {name!r} declares bad atom name(s) {bad}")
        if len(vocabulary) > classical.VOCAB_LIMIT:
            raise VocabularyError(
                f"theory {name!r} declares {len(vocabulary)} atoms; "
                f"the supported bound is {classical.VOCAB_LIMIT}"
            )
        # The empty prefix is a theory of its own, whose memo holds statuses
        # against no axioms: every valuation is one of its models.
        full = classical.full_table(len(vocabulary))
        columns = classical.columns(sorted(vocabulary))
        empty = Theory._trusted(name, vocabulary, (), full, columns, full)
        vars(self).update(vars(empty._admit(name, tuple(axioms))))

    @classmethod
    def _trusted(
        cls, name: str, vocabulary: frozenset[str], axioms: tuple, models: int,
        columns: dict, full: int,
    ) -> "Theory":
        """A theory whose axioms are already known to be valid, with the
        table of their models."""
        theory = object.__new__(cls)
        vars(theory).update(
            name=name, vocabulary=vocabulary, axioms=axioms, _status={}, _models=models,
            _columns=columns, _full=full,
        )
        return theory

    def _admit(self, name: str, delta: tuple[Formula, ...]) -> "Theory":
        """Theory `name`: self's axioms plus delta, each legal in its prefix.

        Self is already validated, so only the delta is checked.
        """
        for axiom in delta:
            stray = atoms_of(axiom) - self.vocabulary
            if stray:
                raise UnknownAtomError(
                    f"axiom {axiom} of theory {name!r} uses undeclared "
                    f"atom(s) {', '.join(sorted(stray))}"
                )
        theory = self
        for axiom in delta:
            if not theory.is_legal(axiom):
                raise IllegalAxiomError(
                    str(axiom),
                    "its truth is already fixed by the preceding axioms while "
                    "it contains an atom they leave undecided, so it is "
                    "outside the theory syntax",
                )
            models = theory._models & theory._table(axiom)
            if not models:
                # Legal, yet false in every model: is_legal found it
                # refutable. Every later axiom would be legal in a theory
                # with no models, so failing now reports what checking the
                # whole delta would.
                raise InconsistentTheoryError(f"axioms of theory {name!r} have no model")
            theory = Theory._trusted(
                name, self.vocabulary, theory.axioms + (axiom,), models, self._columns, self._full
            )
        return theory

    def _table(self, phi: Formula) -> int:
        """The truth table of phi over this theory's vocabulary."""
        return classical.table(phi, self._columns, self._full)

    # -- classification -----------------------------------------------------

    def atom_status(self, name: str) -> PropStatus:
        """Status of a single atom, from the same memo as classify."""
        if name not in self.vocabulary:
            raise UnknownAtomError(
                f"atom {name!r} is outside the vocabulary of theory {self.name!r}"
            )
        return self.classify(Atom(name))

    def classify(self, phi: Formula) -> PropStatus:
        """Provable if true in every model, refutable if in none, else undecidable."""
        key = phi.name if phi.__class__ is Atom else phi
        status = self._status.get(key)
        if status is None:
            try:
                truth = self._table(phi)
            except KeyError:
                stray = atoms_of(phi) - self.vocabulary
                raise UnknownAtomError(
                    f"formula {phi} uses atom(s) {', '.join(sorted(stray))} "
                    f"outside the vocabulary of theory {self.name!r}"
                ) from None
            status = self._status[key] = _status_of(self._models, truth)
        return status

    def _atom_statuses(self) -> dict[str, PropStatus]:
        """Every atom's status by name, in one pass over the atoms' columns.

        An atom's table is its column, so the pass computes no table. It
        enters each status in the memo that atom_status and classify share;
        an atom memoized already gets the same status again.
        """
        models, memo, statuses = self._models, self._status, {}
        for name, column in self._columns.items():
            memo[name] = statuses[name] = _status_of(models, column)
        return statuses

    def is_legal(self, phi: Formula) -> bool:
        """Membership in this theory's theory syntax (layered rule)."""
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
        the grown axiom set must stay consistent. Only the delta is checked.
        """
        delta = tuple(delta)
        if not delta:
            return self
        suffix = "+".join(str(d) for d in delta)
        return self._admit(f"{self.name}+{suffix}", delta)


# --------------------------------------------------------------------------
# Theory file format
# --------------------------------------------------------------------------
#
#   theory <name>
#   atoms <a> <b> ...
#   axiom <formula>
#   query <formula>        (optional; used by the check command)
#   # comment
#
# Lines follow syntax.split_line: the first word is the directive. An error
# in a line reports the column of the word it names, or of the formula's
# token at fault.


def parse_theory(text: str) -> tuple[Theory, list[Formula]]:
    """Parse the plain-text theory format; returns (theory, query formulas)."""
    name: str | None = None
    vocabulary: list[str] = []
    axioms: list[Formula] = []
    queries: list[Formula] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = split_line(raw)
        if words is None:
            continue
        directive, start, rest, column = words
        if directive == "theory":
            if name is not None:
                raise ParseError("duplicate 'theory' line", lineno, start)
            if not rest:
                raise ParseError("'theory' needs a name", lineno, start)
            name = rest
        elif directive == "atoms":
            if not rest:
                raise ParseError("'atoms' needs at least one name", lineno, start)
            words = split_line(rest, column)
            while words:
                atom, where, rest, column = words
                if not is_name(atom):
                    raise ParseError(f"bad atom name {atom!r}", lineno, where)
                vocabulary.append(atom)
                words = split_line(rest, column)
        elif directive in ("axiom", "query"):
            if not rest:
                raise ParseError(f"'{directive}' needs a formula", lineno, start)
            (axioms if directive == "axiom" else queries).append(parse_formula_at(rest, lineno, column))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno, start)

    if name is None:
        raise ParseError("missing 'theory' line", 1)
    return Theory(name, vocabulary, axioms), queries


def load_theory(path: str) -> tuple[Theory, list[Formula]]:
    return parse_theory(read_text(path))
