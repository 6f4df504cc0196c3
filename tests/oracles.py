"""Reference implementations the tests check nafl against.

nafl decides every formula through one path, the truth tables of
``nafl.classical``, and evaluates the superposed model from the atom
statuses a theory has decided. These are the slow, obviously correct routes
the tests compare it with: evaluation under a single valuation, enumeration
of every valuation and of a theory's models, the negation normal form that
defines the superposed model's evaluation, and Priest's three-valued Logic
of Paradox values. No program path uses them.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from nafl.classical import vocabulary_of
from nafl.syntax import And, Atom, Formula, Iff, Implies, Not, Or
from nafl.theories import PropStatus


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


def models_by_enumeration(vocab, axioms) -> set[tuple[tuple[str, bool], ...]]:
    """The valuations satisfying every axiom, each as a sorted (atom, value) tuple."""
    return {
        tuple(sorted(v.items()))
        for v in valuations(vocab)
        if all(eval_formula(axiom, v) for axiom in axioms)
    }


def is_satisfiable_by_enumeration(axioms):
    return any(
        all(eval_formula(ax, v) for ax in axioms)
        for v in valuations(vocabulary_of(axioms))
    )


def entails_by_enumeration(axioms, phi):
    return all(
        eval_formula(phi, v)
        for v in valuations(vocabulary_of(list(axioms) + [phi]))
        if all(eval_formula(ax, v) for ax in axioms)
    )


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Push negations down to literals, expanding -> and <-> on the way."""
    if isinstance(formula, Atom):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return to_nnf(formula.operand, not negate)
    if isinstance(formula, And):
        if negate:
            return Or(to_nnf(formula.left, True), to_nnf(formula.right, True))
        return And(to_nnf(formula.left, False), to_nnf(formula.right, False))
    if isinstance(formula, Or):
        if negate:
            return And(to_nnf(formula.left, True), to_nnf(formula.right, True))
        return Or(to_nnf(formula.left, False), to_nnf(formula.right, False))
    if isinstance(formula, Implies):
        if negate:
            return And(to_nnf(formula.left, False), to_nnf(formula.right, True))
        return Or(to_nnf(formula.left, True), to_nnf(formula.right, False))
    assert isinstance(formula, Iff)
    left, right = formula.left, formula.right
    if negate:
        return Or(
            And(to_nnf(left, False), to_nnf(right, True)),
            And(to_nnf(left, True), to_nnf(right, False)),
        )
    return And(
        Or(to_nnf(left, True), to_nnf(right, False)),
        Or(to_nnf(left, False), to_nnf(right, True)),
    )


# Priest, "The logic of paradox" (1979): an undecided atom is both true and
# false, the middle value; a formula holds when its value is designated.
LP_VALUES = {PropStatus.PROVABLE: 1.0, PropStatus.UNDECIDABLE: 0.5, PropStatus.REFUTABLE: 0.0}


def lp_value(formula: Formula, statuses: Mapping[str, PropStatus]) -> float:
    """The LP value of formula: 1 true only, 0 false only, 1/2 both."""
    if isinstance(formula, Atom):
        return LP_VALUES[statuses[formula.name]]
    if isinstance(formula, Not):
        return 1 - lp_value(formula.operand, statuses)
    left, right = lp_value(formula.left, statuses), lp_value(formula.right, statuses)
    if isinstance(formula, And):
        return min(left, right)
    if isinstance(formula, Or):
        return max(left, right)
    if isinstance(formula, Implies):
        return max(1 - left, right)
    assert isinstance(formula, Iff)
    return min(max(1 - left, right), max(1 - right, left))


def lp_eval(formula: Formula, statuses: Mapping[str, PropStatus]) -> bool:
    """True iff formula's LP value is designated (at least 1/2)."""
    return lp_value(formula, statuses) >= 0.5


def audit_by_all_pairs(entries):
    """Model-kind conflicts by comparing every pair of (start, end, kind)
    entries in stream order: (later start, kind, other kind) where two
    entries of different kinds overlap."""
    conflicts = []
    for i, (s1, e1, k1) in enumerate(entries):
        for s2, e2, k2 in entries[i + 1 :]:
            lo = max(s1, s2)
            if k1 != k2 and lo < min(e1, e2):
                conflicts.append((lo, k1, k2))
    return conflicts
