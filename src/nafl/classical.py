"""Classical consequence over finite vocabularies.

One exact decision path: bit-parallel truth tables (Knuth, TAOCP 4A,
§7.1.3). Over a sorted vocabulary of n atoms, valuation v gives the atom at
index k the value of bit k of v, and a table is a Python int whose bit v is
set iff valuation v satisfies the formula. An atom's table is its column,
cached per (index, vocabulary size); ``table`` folds the connectives into
bitwise operations on them. The models of a formula set are the AND of their
tables, so entailment is one AND and one comparison, with no search.

``is_satisfiable`` and ``entails`` build the tables over the formulas' own
vocabulary. The tests cross-check them against exhaustive valuation
enumeration, which ``tests/oracles.py`` keeps out of the package.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

from .errors import VocabularyError
from .syntax import And, Atom, Formula, Iff, Implies, Not, Or, atoms_of

# A table over n atoms has 2**n bits: 8 KiB per formula at 16 atoms.
VOCAB_LIMIT = 16


def vocabulary_of(formulas: Iterable[Formula]) -> tuple[str, ...]:
    names: set[str] = set()
    for formula in formulas:
        names |= atoms_of(formula)
    return tuple(sorted(names))


# --------------------------------------------------------------------------
# Truth tables
# --------------------------------------------------------------------------


def full_table(size: int) -> int:
    """The table of every valuation of a size-atom vocabulary."""
    return (1 << (1 << size)) - 1


@functools.cache
def column(index: int, size: int) -> int:
    """The table of the atom at `index` of a sorted size-atom vocabulary.

    Bit v is set iff bit `index` of v is: runs of 2**index zeros and ones,
    built as one block times a repunit in base 2**(2 * 2**index).
    """
    width = 1 << index
    return full_table(size) // ((1 << 2 * width) - 1) * (((1 << width) - 1) << width)


def columns(vocab: Sequence[str]) -> dict[str, int]:
    """The column of each atom of a sorted vocabulary."""
    return {name: column(index, len(vocab)) for index, name in enumerate(vocab)}


def table(formula: Formula, cols: Mapping[str, int], full: int) -> int:
    """The truth table of formula over the vocabulary of `cols`.

    `full` is that vocabulary's ``full_table``. An atom outside `cols`
    raises KeyError.
    """
    if isinstance(formula, Atom):
        return cols[formula.name]
    if isinstance(formula, Not):
        return full ^ table(formula.operand, cols, full)
    left = table(formula.left, cols, full)
    right = table(formula.right, cols, full)
    if isinstance(formula, And):
        return left & right
    if isinstance(formula, Or):
        return left | right
    if isinstance(formula, Implies):
        return (full ^ left) | right
    assert isinstance(formula, Iff)
    return full ^ left ^ right


def _models(*formulas: Formula) -> int:
    """The AND of the formulas' tables over their own atoms: their models.

    More than VOCAB_LIMIT atoms is a VocabularyError.
    """
    vocab = vocabulary_of(formulas)
    if len(vocab) > VOCAB_LIMIT:
        raise VocabularyError(f"{len(vocab)} atoms exceed the supported bound of {VOCAB_LIMIT}")
    cols, full = columns(vocab), full_table(len(vocab))
    models = full
    for formula in formulas:
        models &= table(formula, cols, full)
    return models


def is_satisfiable(axioms: Sequence[Formula]) -> bool:
    """True iff some total valuation satisfies every axiom."""
    return _models(*axioms) != 0


def entails(axioms: Sequence[Formula], phi: Formula) -> bool:
    """True iff every valuation satisfying the axioms satisfies phi."""
    return _models(*axioms, Not(phi)) == 0
