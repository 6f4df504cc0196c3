"""Independent oracles: the benchmark's own semantics, not the program's.

Truth tables are Python integers with one bit per valuation, so a theory of
12 atoms is checked by brute force over all 4096 valuations in a few bitwise
operations per formula. Formulas are the tuples built in ``inputs``.
"""

from __future__ import annotations

import math


class Bits:
    """Bit-parallel truth tables over a fixed vocabulary."""

    def __init__(self, names: list[str]):
        size = 1 << len(names)
        self.full = (1 << size) - 1
        self.column: dict[str, int] = {}
        for k, name in enumerate(names):
            width = 1 << k
            mask = ((1 << width) - 1) << width   # valuations with bit k set
            span = 2 * width
            while span < size:
                mask |= mask << span
                span *= 2
            self.column[name] = mask

    def legal(self, models: int, formula: tuple, mask: int) -> bool:
        """The layered rule: undecided, or every atom in it decided."""
        if status_of(models, mask) == "undecidable":
            return True
        return all(is_decided(self, models, n) for n in atoms(formula))


def table(formula: tuple, bits: Bits) -> int:
    kind = formula[0]
    if kind == "atom":
        return bits.column[formula[1]]
    if kind == "not":
        return bits.full ^ table(formula[1], bits)
    left, right = table(formula[1], bits), table(formula[2], bits)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    if kind == "implies":
        return (bits.full ^ left) | right
    return bits.full ^ (left ^ right)


def atoms(formula: tuple) -> set[str]:
    if formula[0] == "atom":
        return {formula[1]}
    return set().union(*(atoms(sub) for sub in formula[1:]))


def status_of(models: int, mask: int) -> str:
    """Provable if true in every model, refutable if in none, else undecidable."""
    if not models & ~mask:
        return "provable"
    if not models & mask:
        return "refutable"
    return "undecidable"


def is_decided(bits: Bits, models: int, name: str) -> bool:
    return status_of(models, bits.column[name]) != "undecidable"


def superposed_truth(formula: tuple, status: dict[str, str], positive: bool = True) -> bool:
    """Truth in the superposed model, from its definition on literals.

    A positive literal holds unless the atom is refutable, a negative one
    unless it is provable; connectives are classical on negation normal form.
    """
    kind = formula[0]
    if kind == "atom":
        return status[formula[1]] != ("refutable" if positive else "provable")
    if kind == "not":
        return superposed_truth(formula[1], status, not positive)
    a, b = formula[1], formula[2]

    def t(f: tuple, p: bool) -> bool:
        return superposed_truth(f, status, p)

    if kind == "and":
        return (t(a, True) and t(b, True)) if positive else (t(a, False) or t(b, False))
    if kind == "or":
        return (t(a, True) or t(b, True)) if positive else (t(a, False) and t(b, False))
    if kind == "implies":
        return (t(a, False) or t(b, True)) if positive else (t(a, True) and t(b, False))
    both = (t(a, False) or t(b, True)) and (t(a, True) or t(b, False))
    either = (t(a, True) and t(b, False)) or (t(a, False) and t(b, True))
    return both if positive else either


def flat_blocked_fraction(wire_width: float, period: float) -> float:
    """Coherent-pattern mass under wires on every minimum, flat envelope.

    Each wire holds w/2 - p sin(pi w/p) / (2 pi) of an unnormalised cos^2
    over one period of mass p/2, so the share is w/p - sin(pi w/p) / pi.
    """
    ratio = wire_width / period
    return ratio - math.sin(math.pi * ratio) / math.pi
