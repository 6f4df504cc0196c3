"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion prints ``acceptance <n>: PASS|FAIL - <what it checked>``
before asserting, so a red run still shows which gate broke.

Criterion 1 re-derives legality with a brute-force oracle written here,
independently of the package's implementation. Criteria 6-8 run the photon
Monte Carlo at one million photons against frozen quadrature values.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from nafl.classical import entails
from nafl.errors import NaflError
from nafl.models import build_nonclassical, nc_eval
from nafl.photonsim import (
    SimConfig,
    analytic_blocked_fraction,
    calibration_preset,
    reconstruct,
    simulate,
)
from nafl.scenarios import builtin_scenario, run_scenario
from nafl.syntax import And, Atom, Iff, Implies, Not, Or, parse_formula as pf
from nafl.theories import Theory


def verdict(number: int, ok: bool, description: str) -> None:
    print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance {number}: {description}"


# --------------------------------------------------------------------------
# 1. legality agrees with a brute-force oracle over a large formula family
# --------------------------------------------------------------------------

_OPS = (And, Or, Implies, Iff)


def _oracle_eval(phi, row):
    match phi:
        case Atom(name=name):
            return row[name]
        case Not(operand=sub):
            return not _oracle_eval(sub, row)
        case And(left=left, right=right):
            return _oracle_eval(left, row) and _oracle_eval(right, row)
        case Or(left=left, right=right):
            return _oracle_eval(left, row) or _oracle_eval(right, row)
        case Implies(left=left, right=right):
            return _oracle_eval(right, row) if _oracle_eval(left, row) else True
        case Iff(left=left, right=right):
            return _oracle_eval(left, row) == _oracle_eval(right, row)
    raise TypeError(phi)


def _oracle_status(models, phi):
    values = [_oracle_eval(phi, row) for row in models]
    if all(values):
        return "provable"
    if not any(values):
        return "refutable"
    return "undecidable"


def _oracle_legal(models, phi, decided):
    from nafl.syntax import atoms_of

    if _oracle_status(models, phi) == "undecidable":
        return True
    return all(name in decided for name in atoms_of(phi))


def _formulas_by_node_count(names, max_nodes):
    by_count = {1: [Atom(n) for n in names]}
    for n in range(2, max_nodes + 1):
        level = [Not(f) for f in by_count[n - 1]]
        for i in range(1, n - 1):
            for left in by_count[i]:
                for right in by_count[n - 1 - i]:
                    level.extend(op(left, right) for op in _OPS)
        by_count[n] = level
    return [f for fs in by_count.values() for f in fs]


def _formulas_by_depth(names, max_depth):
    closure = {Atom(n) for n in names}
    for _ in range(max_depth):
        closure = (
            closure
            | {Not(f) for f in closure}
            | {op(l, r) for op in _OPS for l in closure for r in closure}
        )
    return closure


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice(names))
    pick = rng.randrange(5)
    if pick == 0:
        return Not(_random_formula(rng, names, depth - 1))
    return _OPS[pick - 1](
        _random_formula(rng, names, depth - 1),
        _random_formula(rng, names, depth - 1),
    )


def test_acceptance_1_legality_matches_brute_force():
    started = time.monotonic()
    names = ("A", "B")

    family = set(_formulas_by_node_count(names, 5))
    assert len(family) == 426  # census of all formulas on <= 5 nodes
    family |= _formulas_by_depth(names, 2)
    rng = random.Random(20260819)
    family |= {_random_formula(rng, names, 3) for _ in range(500)}
    family |= {
        pf("A | ~A"),
        pf("A & ~A"),
        pf("(A & (A -> B)) -> B"),
        pf("~~A <-> A"),
    }
    assert len(family) > 2000

    theories = (
        Theory("T0", frozenset(names), ()),
        Theory("TA", frozenset(names), (pf("A"),)),
        Theory("TAB", frozenset(names), (pf("A"), pf("~B"))),
        Theory("TIMP", frozenset(names), (pf("A -> B"),)),
    )
    rows = [
        dict(zip(names, bits))
        for bits in itertools.product((False, True), repeat=len(names))
    ]
    checked = 0
    for theory in theories:
        models = [
            row for row in rows
            if all(_oracle_eval(ax, row) for ax in theory.axioms)
        ]
        decided = {
            name for name in names
            if _oracle_status(models, Atom(name)) != "undecidable"
        }
        for phi in family:
            assert theory.classify(phi).value == _oracle_status(models, phi)
            assert theory.is_legal(phi) == _oracle_legal(models, phi, decided)
            checked += 1
    elapsed = time.monotonic() - started
    verdict(
        1,
        checked == 4 * len(family) and elapsed < 5.0,
        f"classification and legality match the brute-force oracle on "
        f"{checked} theory/formula pairs in {elapsed:.2f}s (limit 5s)",
    )


# --------------------------------------------------------------------------
# 2. superposed models witness contradictions the theory never proves
# --------------------------------------------------------------------------


def test_acceptance_2_superposition_holds_contradictions_unprovably():
    pool = [
        "A", "B", "C", "~A", "~B", "~C",
        "A -> B", "B -> C", "C -> A", "A | B", "B & C", "~(A & C)",
        "A -> (B -> C)", "A <-> B",
    ]
    rng = random.Random(49)
    built = 0
    attempts = 0
    while built < 1000 and attempts < 30000:
        attempts += 1
        axioms = tuple(
            pf(rng.choice(pool)) for _ in range(rng.randrange(3))
        )
        try:
            theory = Theory(f"R{attempts}", frozenset("ABC"), axioms)
        except NaflError:
            continue
        undecided = theory.undecided_atoms()
        if not undecided:
            continue
        model = build_nonclassical(theory)
        atom = Atom(rng.choice(undecided))
        contradiction = And(atom, Not(atom))
        assert nc_eval(model, contradiction) is True
        assert not entails(theory.axioms, contradiction)
        built += 1
    verdict(
        2,
        built >= 1000,
        f"{built} random consistent theories with an undecided atom: the "
        "superposed model satisfies the contradiction, the theory never "
        "proves it",
    )


# --------------------------------------------------------------------------
# 3. the wire-grid scenario reproduces its golden timeline, repeatably
# --------------------------------------------------------------------------


def test_acceptance_3_afshar_golden_timeline():
    report = run_scenario(builtin_scenario("afshar"))
    again = run_scenario(builtin_scenario("afshar"))

    ok = report.render() == again.render()
    ok = ok and report.truth_value("P", 0.0) == "neither"
    ok = ok and report.truth_value("P", 1.0) == "neither"
    ok = ok and report.truth_value("P", 2.0) == "true"
    ok = ok and report.truth_value("Q", 2.0) == "true"
    ok = ok and report.truth_value("R", 2.0) == "neither"

    (rejection,) = report.rejections
    ok = ok and rejection.kind == "illegal-axiom"
    ok = ok and rejection.event.time_label == "t1"

    duality = {
        r.time_label: (r.distinguishability, r.visibility)
        for r in report.duality_records
    }
    ok = ok and duality == {"t0": (0.0, 1.0), "t1": (0.0, 1.0), "t2": (1.0, 0.0)}
    ok = ok and report.bcp.passed and report.duality.passed
    ok = ok and report.all_expectations_matched
    verdict(
        3,
        ok,
        "wire-grid scenario: path atom neither->true at the detection, "
        "contradiction rejected mid-flight, duality flips (0,1)->(1,0), "
        "byte-identical on a second run",
    )


# --------------------------------------------------------------------------
# 4. removing the grid changes nothing the logic can see
# --------------------------------------------------------------------------


def test_acceptance_4_grid_is_invisible_to_the_logic():
    with_grid = run_scenario(builtin_scenario("afshar"))
    without = run_scenario(builtin_scenario("afshar_nogrid"))
    ok = with_grid.truth_table_text() == without.truth_table_text()
    ok = ok and with_grid.duality == without.duality
    verdict(
        4,
        ok,
        "scenarios with and without the wire grid produce identical truth "
        "and duality tables",
    )


# --------------------------------------------------------------------------
# 5. retroactive assertions become visible only from the measurement
# --------------------------------------------------------------------------


def test_acceptance_5_retroaction_starts_at_the_measurement():
    ok = True
    for name in ("schrodinger_cat", "coin_toss"):
        report = run_scenario(builtin_scenario(name))
        retro_label = next(
            label for label, _ in report.truth_rows if label.startswith("retro")
        )
        ok = ok and report.truth_value(retro_label, 0.0) == "-"
        ok = ok and report.truth_value(retro_label, 1.0) == "-"
        ok = ok and report.truth_value(retro_label, 2.0) == "true"
        ok = ok and report.truth_value(report.scenario.tracked, 0.0) == "neither"
        ok = ok and report.truth_value(report.scenario.tracked, 2.0) == "true"
    verdict(
        5,
        ok,
        "cat and coin scenarios: the retroactive row reads '-' before the "
        "measurement and 'true' from it on",
    )


# --------------------------------------------------------------------------
# 6-8. the Monte Carlo against frozen quadrature values
# --------------------------------------------------------------------------

MILLION = 1_000_000
SEED = 20260819

# Quadrature of the normalized densities over the wire intervals
# (flat envelope, period 1, half extent 10), frozen:
ORACLE_QUANTUM_W050 = 2.0536323782e-04
ORACLE_CLASSICAL_W050 = 5.0e-2
ORACLE_QUANTUM_W066 = 4.7189643296e-04

# Three binomial standard deviations at one million photons:
BAND_QUANTUM_W050 = 4.299e-5
BAND_CLASSICAL_W050 = 6.538e-4
BAND_QUANTUM_W066 = 6.515e-5


@pytest.fixture(scope="module")
def million_photon_runs():
    quantum = SimConfig(photons=MILLION, seed=SEED)
    classical = SimConfig(photons=MILLION, seed=SEED, mode="classical")
    preset = calibration_preset(photons=MILLION, seed=SEED)
    started = time.monotonic()
    runs = {
        "quantum": simulate(quantum),
        "classical": simulate(classical),
        "preset": simulate(preset),
    }
    elapsed = time.monotonic() - started
    return runs, elapsed


def test_acceptance_6_blocked_fractions_match_quadrature(million_photon_runs):
    runs, elapsed = million_photon_runs
    q = runs["quantum"].blocked_fraction
    c = runs["classical"].blocked_fraction
    p = runs["preset"].blocked_fraction

    ok = abs(q - ORACLE_QUANTUM_W050) < BAND_QUANTUM_W050
    ok = ok and abs(c - ORACLE_CLASSICAL_W050) < BAND_CLASSICAL_W050
    ok = ok and abs(p - ORACLE_QUANTUM_W066) < BAND_QUANTUM_W066
    # the oracles themselves must still match their frozen values
    ok = ok and math.isclose(
        analytic_blocked_fraction("quantum", runs["quantum"].config),
        ORACLE_QUANTUM_W050, rel_tol=1e-9,
    )
    ok = ok and math.isclose(
        analytic_blocked_fraction("quantum", runs["preset"].config),
        ORACLE_QUANTUM_W066, rel_tol=1e-9,
    )
    ok = ok and elapsed < 60.0
    verdict(
        6,
        ok,
        f"million-photon blocked fractions within three sigma of quadrature "
        f"(quantum {q:.3e} vs {ORACLE_QUANTUM_W050:.3e}, classical {c:.4f} "
        f"vs {ORACLE_CLASSICAL_W050:.4f}, 6.6% preset {p:.3e} vs "
        f"{ORACLE_QUANTUM_W066:.3e}) in {elapsed:.1f}s (limit 60s)",
    )


def test_acceptance_7_reconstruction_separates_the_patterns(million_photon_runs):
    runs, _ = million_photon_runs
    coherent = reconstruct(runs["quantum"], bins=100)
    envelope = reconstruct(runs["classical"], bins=100)
    ok = coherent.p_value > 0.01
    ok = ok and coherent.minima_aligned
    ok = ok and envelope.p_value < 0.01
    verdict(
        7,
        ok,
        f"chi-square keeps the coherent run (p={coherent.p_value:.3f}, all "
        f"minima within half a bin of the wire centers) and rejects the "
        f"envelope-shaped run (p={envelope.p_value:.2e})",
    )


def test_acceptance_8_worker_count_is_invisible(million_photon_runs):
    runs, _ = million_photon_runs
    cfg = runs["quantum"].config
    ok = runs["quantum"] == simulate(cfg, workers=2) == simulate(cfg, workers=8)
    # the photon arrays themselves; np.array_equal(None, None) is True
    one, two, eight = (simulate(cfg, workers=w, keep_photons=True) for w in (1, 2, 8))
    ok = ok and all(run.x is not None for run in (one, two, eight))
    ok = ok and one == two == eight
    ok = ok and np.array_equal(one.counts, runs["quantum"].counts)
    verdict(
        8,
        ok,
        "one-million-photon run is bit-identical with 1, 2, and 8 workers",
    )
