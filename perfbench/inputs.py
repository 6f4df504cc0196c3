"""Seeded input generators for the four workloads.

Every generator takes a ``random.Random`` and returns plain text (what a
user would hand the program) together with the facts the independent checks
need. Formulas are built here as tuples so the oracles never depend on the
program's own parser or AST:

    ("atom", name) | ("not", f) | (op, left, right)  with op in BINARY
"""

from __future__ import annotations

import random
import string

from oracles import Bits, status_of, superposed_truth, table

BINARY = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}


def op_rng(seed: int, stream: str, index: int) -> random.Random:
    """Per-operation generator; string seeding is independent of PYTHONHASHSEED."""
    return random.Random(f"{seed}:{stream}:{index}")


def atom_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = rng.choice(string.ascii_uppercase) + "".join(
            rng.choices(string.ascii_lowercase + string.digits, k=5)
        )
        if name not in names:
            names.append(name)
    return names


def text(formula: tuple) -> str:
    """Fully parenthesised surface syntax; the parser's precedence never matters."""
    kind = formula[0]
    if kind == "atom":
        return formula[1]
    if kind == "not":
        return "~" + text(formula[1])
    return f"({text(formula[1])} {BINARY[kind]} {text(formula[2])})"


def literal(name: str, positive: bool) -> tuple:
    return ("atom", name) if positive else ("not", ("atom", name))


# --------------------------------------------------------------------------
# timeline: chain scenarios with a closed-form truth table
# --------------------------------------------------------------------------

CHAIN_ATOMS = 16
# (time index, chain position, forward) per declaration, one per time t1..t6.
# A forward declaration asserts L(j) and, through the bridges L(i+1) -> L(i),
# forces L(0..j); a backward one asserts ~L(j) and forces ~L(j..n-1).
CHAIN_DECLARATIONS = (
    (1, 2, True), (2, 14, False), (3, 5, True),
    (4, 12, False), (5, 8, True), (6, 11, False),
)
CHAIN_TRACKED = 0       # decided from t1 on
CHAIN_REJECTED = 10     # never decided: X & ~X stays outside the syntax
CHAIN_RETRO = (5, 7)    # at t5, retro [t0, t5) L(7): first provable at t5


def chain_scenario(rng: random.Random) -> tuple[str, dict]:
    """Scenario text plus the facts its closed-form truth table needs."""
    names = atom_names(rng, CHAIN_ATOMS)
    # L(i) is A_i or ~A_i. The seed places the negated links; their number is
    # fixed, because the search cost grows with it.
    polarity = [i % 2 == 0 for i in range(CHAIN_ATOMS)]
    rng.shuffle(polarity)
    lit = [literal(n, p) for n, p in zip(names, polarity)]
    neg = [literal(n, not p) for n, p in zip(names, polarity)]
    times = list(range(len(CHAIN_DECLARATIONS) + 1))
    lines = [f"scenario chain_{names[0].lower()}"]
    lines += [f'atom {n} "chain link {i}"' for i, n in enumerate(names)]
    lines += [f"time t{t} {t}" for t in times]
    lines += [f"bridge {text(lit[i + 1])} -> {text(lit[i])}" for i in range(CHAIN_ATOMS - 1)]
    lines.append(f"track {names[CHAIN_TRACKED]}")
    x = names[CHAIN_REJECTED]
    # Before the plain declare at the same label: run_scenario takes events in
    # (time, file order), and a reject attempted after an epoch opened at that
    # time fails with OutOfOrderTimeError instead of being logged.
    lines.append(f"at t1 expect-reject declare {x} & ~{x}")
    for t, j, forward in CHAIN_DECLARATIONS:
        lines.append(f"at t{t} declare {text(lit[j] if forward else neg[j])}")
        if t == CHAIN_RETRO[0]:
            lines.append(f"at t{t} retro [t0, t{t}) {text(lit[CHAIN_RETRO[1]])}")
    facts = {
        "names": names,
        "polarity": polarity,
        "times": times,
        "retro_formula": text(lit[CHAIN_RETRO[1]]),
        "rejected": f"{x} & ~{x}",
    }
    return "\n".join(lines) + "\n", facts


def chain_truth(facts: dict, t: float) -> list[str]:
    """Closed form: each atom is neither until a declared literal reaches it."""
    out = []
    for i, positive in enumerate(facts["polarity"]):
        value = "neither"
        for when, j, forward in CHAIN_DECLARATIONS:
            if when > t:
                continue
            if forward and j >= i:
                value = "true" if positive else "false"
            elif not forward and j <= i:
                value = "false" if positive else "true"
        out.append(value)
    return out


# --------------------------------------------------------------------------
# formulas: random consistent theories and distinct random formulas
# --------------------------------------------------------------------------

THEORY_ATOMS = 12
THEORY_UNITS = 2        # unit-literal axioms, so layer (b) of the rule matters
THEORY_CLAUSES = 6      # random three-atom axioms
BATCH_OPEN = 144        # formulas over the whole vocabulary
BATCH_DECIDED = 48      # formulas over decided atoms only
FORMULA_LEAVES = 4


def random_formula(rng: random.Random, names: list[str], leaves: int) -> tuple:
    if leaves == 1:
        node: tuple = ("atom", rng.choice(names))
    else:
        split = rng.randint(1, leaves - 1)
        node = (
            rng.choice(tuple(BINARY)),
            random_formula(rng, names, split),
            random_formula(rng, names, leaves - split),
        )
    return ("not", node) if rng.random() < 0.3 else node


def random_theory(rng: random.Random) -> dict:
    """A theory legal axiom by axiom and consistent, with oracle verdicts."""
    while True:
        names = atom_names(rng, THEORY_ATOMS)
        bits = Bits(names)
        axioms: list[tuple] = []
        models = bits.full
        for kind in ["unit"] * THEORY_UNITS + ["clause"] * THEORY_CLAUSES:
            for _attempt in range(50):
                if kind == "unit":
                    cand = literal(rng.choice(names), rng.random() < 0.5)
                else:
                    cand = random_formula(rng, rng.sample(names, 3), 3)
                mask = table(cand, bits)
                if bits.legal(models, cand, mask) and models & mask:
                    axioms.append(cand)
                    models &= mask
                    break
        if len(axioms) != THEORY_UNITS + THEORY_CLAUSES:
            continue
        status = {n: status_of(models, bits.column[n]) for n in names}
        decided = [n for n in names if status[n] != "undecidable"]
        undecided = [n for n in names if status[n] == "undecidable"]
        if len(decided) < 2 or not undecided:
            continue
        batch: dict[str, tuple] = {}
        for pool, count in ((names, BATCH_OPEN), (decided, BATCH_DECIDED)):
            target = len(batch) + count
            while len(batch) < target:
                f = random_formula(rng, pool, FORMULA_LEAVES)
                batch.setdefault(text(f), f)
        # Alternate halves, each with its share of both pools: the program
        # decides every formula once, by is_legal or by classify, never both.
        texts, formulas = list(batch), list(batch.values())
        return {
            "names": names,
            "axioms": [text(a) for a in axioms],
            "legal_batch": texts[0::2],
            "legal": [bits.legal(models, f, table(f, bits)) for f in formulas[0::2]],
            "status_batch": texts[1::2],
            "status": [status_of(models, table(f, bits)) for f in formulas[1::2]],
            "superposed": [superposed_truth(f, status) for f in formulas[0::2] + formulas[1::2]],
            "contradictions": [f"{n} & ~{n}" for n in undecided],
        }


# --------------------------------------------------------------------------
# cli: chain theory files with closed-form atom statuses
# --------------------------------------------------------------------------

THY_ATOMS = 8
THY_UNIT = 4            # the unit literal L(4) decides L(0..4)


def chain_theory_file(rng: random.Random) -> tuple[str, dict]:
    names = atom_names(rng, THY_ATOMS)
    polarity = [rng.random() < 0.5 for _ in names]
    lit = [literal(n, p) for n, p in zip(names, polarity)]
    lines = [f"theory chain_{names[0].lower()}", "atoms " + " ".join(names)]
    lines += [f"axiom {text(lit[i + 1])} -> {text(lit[i])}" for i in range(THY_ATOMS - 1)]
    lines.append(f"axiom {text(lit[THY_UNIT])}")
    decided, undecided = names[THY_UNIT - 1], names[THY_UNIT + 1]
    lines += [f"query {decided} | ~{decided}", f"query {undecided} | ~{undecided}"]
    status = {
        n: ("provable" if p else "refutable") if i <= THY_UNIT else "undecidable"
        for i, (n, p) in enumerate(zip(names, polarity))
    }
    facts = {
        "name": f"chain_{names[0].lower()}",
        "status": status,
        "queries": {
            f"{decided} | ~{decided}": "legal, provable",
            f"{undecided} | ~{undecided}": "illegal in the theory syntax",
        },
    }
    return "\n".join(lines) + "\n", facts
