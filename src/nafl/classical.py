"""Classical consequence over finite vocabularies.

One exact decision path: a backtracking satisfiability search with partial
evaluation. The tests cross-check it against exhaustive valuation
enumeration, which they keep as their oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import VocabularyError
from .syntax import And, Atom, Formula, Iff, Implies, Not, Or, atoms_of

# Hard cap keeping full valuation enumeration feasible as an oracle.
VOCAB_LIMIT = 24


def vocabulary_of(formulas: Iterable[Formula]) -> tuple[str, ...]:
    names: set[str] = set()
    for formula in formulas:
        names |= atoms_of(formula)
    return tuple(sorted(names))


def _check_vocab(formulas: Sequence[Formula], limit: int = VOCAB_LIMIT) -> tuple[str, ...]:
    vocab = vocabulary_of(formulas)
    if len(vocab) > limit:
        raise VocabularyError(f"{len(vocab)} atoms exceed the supported bound of {limit}")
    return vocab


def eval_formula(formula: Formula, valuation: Mapping[str, bool]) -> bool:
    if isinstance(formula, Atom):
        return valuation[formula.name]
    if isinstance(formula, Not):
        return not eval_formula(formula.operand, valuation)
    if isinstance(formula, And):
        return eval_formula(formula.left, valuation) and eval_formula(formula.right, valuation)
    if isinstance(formula, Or):
        return eval_formula(formula.left, valuation) or eval_formula(formula.right, valuation)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.left, valuation)) or eval_formula(formula.right, valuation)
    assert isinstance(formula, Iff)
    return eval_formula(formula.left, valuation) == eval_formula(formula.right, valuation)


def valuations(vocab: Sequence[str]) -> Iterator[dict[str, bool]]:
    for bits in itertools.product((False, True), repeat=len(vocab)):
        yield dict(zip(vocab, bits))


# --------------------------------------------------------------------------
# Backtracking search with partial evaluation
# --------------------------------------------------------------------------


def _simplify(formula: Formula, assignment: Mapping[str, bool]) -> Formula | bool:
    """Partially evaluate under an incomplete assignment."""
    if isinstance(formula, Atom):
        value = assignment.get(formula.name)
        return formula if value is None else value
    if isinstance(formula, Not):
        sub = _simplify(formula.operand, assignment)
        if isinstance(sub, bool):
            return not sub
        return Not(sub)
    if isinstance(formula, And):
        left = _simplify(formula.left, assignment)
        if left is False:
            return False
        right = _simplify(formula.right, assignment)
        if right is False:
            return False
        if left is True:
            return right
        if right is True:
            return left
        return And(left, right)
    if isinstance(formula, Or):
        left = _simplify(formula.left, assignment)
        if left is True:
            return True
        right = _simplify(formula.right, assignment)
        if right is True:
            return True
        if left is False:
            return right
        if right is False:
            return left
        return Or(left, right)
    if isinstance(formula, Implies):
        left = _simplify(formula.left, assignment)
        if left is False:
            return True
        right = _simplify(formula.right, assignment)
        if right is True:
            return True
        if left is True:
            return right
        if right is False:
            return Not(left)
        return Implies(left, right)
    assert isinstance(formula, Iff)
    left = _simplify(formula.left, assignment)
    right = _simplify(formula.right, assignment)
    if isinstance(left, bool) and isinstance(right, bool):
        return left == right
    if left is True:
        return right
    if right is True:
        return left
    if left is False:
        return right if isinstance(right, bool) else Not(right)
    if right is False:
        return left if isinstance(left, bool) else Not(left)
    return Iff(left, right)


def _first_atom(formula: Formula) -> str:
    node = formula
    while not isinstance(node, Atom):
        if isinstance(node, Not):
            node = node.operand
        else:
            node = node.left  # type: ignore[attr-defined]
    return node.name


def _search(pending: list[Formula], assignment: dict[str, bool]) -> bool:
    residual: list[Formula] = []
    for formula in pending:
        value = _simplify(formula, assignment)
        if value is False:
            return False
        if value is not True:
            residual.append(value)
    if not residual:
        return True
    atom = _first_atom(residual[0])
    for choice in (True, False):
        assignment[atom] = choice
        if _search(residual, assignment):
            del assignment[atom]
            return True
        del assignment[atom]
    return False


def is_satisfiable(axioms: Sequence[Formula]) -> bool:
    """True iff some total valuation satisfies every axiom."""
    axioms = list(axioms)
    _check_vocab(axioms)
    return _search(axioms, {})


def entails(axioms: Sequence[Formula], phi: Formula) -> bool:
    """True iff every valuation satisfying the axioms satisfies phi."""
    axioms = list(axioms)
    _check_vocab(axioms + [phi])
    return not _search(axioms + [Not(phi)], {})
