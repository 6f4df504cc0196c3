"""Command-line front end.

Five subcommands:

* check    - classify a theory file's atoms and queries;
* run      - execute a scenario and print the full timeline report;
* duality  - print just the complementarity table for a scenario;
* sim      - run the photon Monte Carlo and summarize it;
* repl     - interactive timeline session on a growing theory.

Exit codes: 0 success; 1 malformed input (parse or validation), or no
numpy for sim; 2 a well-formed theory or run was rejected (illegal axiom,
inconsistency, or too few samples per bin); 3 a soundness check failed
(single-model-kind audit or duality bound); 4 an expect-reject annotation
did not match what actually happened.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import photonsim
from .duality import _endpoints
from .errors import (
    IllegalAxiomError,
    IllegalPropositionError,
    InconsistentTheoryError,
    NaflError,
    ParseError,
    ScenarioExecutionError,
    ScenarioValidationError,
    TooFewSamplesError,
    UnknownAtomError,
    UnreadableFileError,
    VocabularyError,
    read_text,
)
from .scenarios import builtin_names, load_scenario, run_scenario
from .simchoices import ENVELOPES, MODES
from .syntax import format_formula, parse_formula_at, split_line
from .theories import Theory, load_theory
from .timeline import Timeline, format_stamp

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_REJECTED = 2
EXIT_CHECK_FAILED = 3
EXIT_EXPECTATION_MISMATCH = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    try:
        theory, queries = load_theory(args.file)
    except (ParseError, UnknownAtomError, VocabularyError) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except IllegalAxiomError as exc:
        return _fail(f"illegal axiom: {exc}", EXIT_REJECTED)
    except InconsistentTheoryError as exc:
        return _fail(f"inconsistent: {exc}", EXIT_REJECTED)

    print(f"theory {theory.name}: consistent")
    print(f"vocabulary: {' '.join(sorted(theory.vocabulary))}")
    if theory.axioms:
        print(f"axioms: {'; '.join(format_formula(a) for a in theory.axioms)}")
    else:
        print("axioms: none")
    for atom in sorted(theory.vocabulary):
        print(f"  {atom}: {theory.atom_status(atom).value}")
    for query in queries:
        rendered = format_formula(query)
        try:
            legal = theory.is_legal(query)
        except UnknownAtomError as exc:
            return _fail(str(exc), EXIT_BAD_INPUT)
        if legal:
            print(f"query {rendered}: legal, {theory.classify(query).value}")
        else:
            print(f"query {rendered}: illegal in the theory syntax")
    return EXIT_OK


# --------------------------------------------------------------------------
# run / duality
# --------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` prints the whole report, ``duality`` its complementarity table."""
    try:
        report = run_scenario(load_scenario(args.scenario))
    except (ParseError, ScenarioValidationError) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except ScenarioExecutionError as exc:
        return _fail(str(exc), EXIT_REJECTED)
    if args.command == "duality":
        print(report.duality_table_text())
        return EXIT_OK if report.duality.passed else EXIT_CHECK_FAILED
    print(report.render())
    if not report.bcp.passed or not report.duality.passed:
        return EXIT_CHECK_FAILED
    if not report.all_expectations_matched:
        return EXIT_EXPECTATION_MISMATCH
    return EXIT_OK


# --------------------------------------------------------------------------
# sim
# --------------------------------------------------------------------------

_CONFIG_FIELDS = {
    "photons": int,
    "seed": int,
    "period": float,
    "half_extent": int,
    "wire_width": float,
    "envelope": str,
    "envelope_width": float,
    "mode": str,
    "grid": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for number, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {number}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {number}: unknown setting {key!r}")
        values[key] = _CONFIG_FIELDS[key](value.strip())
    return values


def cmd_sim(args: argparse.Namespace) -> int:
    try:
        photonsim.SimConfig  # the first read executes the module, which imports numpy
    except ImportError as exc:
        return _fail(f"nafl sim needs numpy: {exc}", EXIT_BAD_INPUT)
    settings: dict = {}
    if args.preset:
        settings.update(period=1.0, wire_width=0.066)
    if args.config:
        try:
            settings.update(_read_config_file(args.config))
        except (ValueError, UnreadableFileError) as exc:
            return _fail(f"config file: {exc}", EXIT_BAD_INPUT)
    for name in (
        "photons", "seed", "period", "half_extent", "wire_width",
        "envelope", "envelope_width", "mode",
    ):
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    if args.no_grid:
        settings["grid"] = False
    settings.setdefault("photons", 100_000)
    settings.setdefault("seed", 0)
    if args.workers < 1:
        return _fail("--workers must be at least 1", EXIT_BAD_INPUT)
    try:
        cfg = photonsim.SimConfig(**settings)
        photonsim._wire_windows(cfg, args.bins)
    except (ValueError, NaflError) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)

    result = photonsim.simulate(cfg, workers=args.workers)
    oracle = photonsim.analytic_blocked_fraction(cfg.mode, cfg)
    print(
        f"mode={cfg.mode} photons={cfg.photons} seed={cfg.seed} "
        f"grid={'on' if cfg.grid else 'off'} wire_width={cfg.wire_width:g} "
        f"period={cfg.period:g}"
    )
    print(
        f"blocked: {result.blocked_count} / {cfg.photons} "
        f"(fraction {result.blocked_fraction:.6e})"
    )
    print(f"analytic blocked fraction: {oracle:.10e}")

    code = EXIT_OK
    try:
        recon = photonsim.reconstruct(result, args.bins)
    except TooFewSamplesError as exc:
        print(f"reconstruction skipped: {exc}")
        code = EXIT_REJECTED
    else:
        print(
            f"chi-square vs coherent pattern: chi2={recon.chi2:.3f} "
            f"dof={recon.dof} p={recon.p_value:.4g}"
        )
        aligned = "yes" if recon.minima_aligned else "no"
        print(f"fringe minima aligned with wire centers: {aligned}")

    if args.out:
        import numpy as np

        counts, edges = np.histogram(
            result.detected_x, bins=args.bins, range=(-cfg.extent, cfg.extent)
        )
        lines = ["bin_left,bin_right,count"]
        for i, count in enumerate(counts):
            lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(count)}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"histogram written to {args.out}")
    return code


# --------------------------------------------------------------------------
# repl
# --------------------------------------------------------------------------


class _ReplState:
    """Mutable wrapper; the timeline itself is rebuilt on every mutation."""

    def __init__(self) -> None:
        self.vocabulary: set[str] = set()
        self.declarations: list[tuple[float, tuple]] = []  # (time, axioms)
        self.clock = 0.0

    def timeline(self) -> Timeline:
        grouped: list[tuple[float, list]] = []
        for when, axioms in self.declarations:
            if grouped and grouped[-1][0] == when:
                grouped[-1][1].extend(axioms)
            else:
                grouped.append((when, list(axioms)))
        base_axioms: tuple = ()
        if grouped and grouped[0][0] == 0.0:
            base_axioms = tuple(grouped.pop(0)[1])
        base = Theory("T0", frozenset(self.vocabulary), base_axioms)
        tl = Timeline.begin(base, 0.0)
        for when, axioms in grouped:
            tl = tl.declare(when, tuple(axioms))
        return tl


def cmd_repl(args: argparse.Namespace) -> int:
    state = _ReplState()
    interactive = sys.stdin.isatty()
    if interactive:
        print("interactive timeline; commands: atom, advance, declare, truth, model, duality, quit")
    lineno = 0
    while True:
        if interactive:
            print("nafl> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        lineno += 1
        words = split_line(line)
        if words is None:
            continue
        command, rest, column = words
        try:
            if command in ("quit", "exit"):
                break
            elif command == "atom":
                names = rest.split()
                if not names:
                    print("usage: atom NAME [NAME ...]")
                    continue
                state.vocabulary.update(names)
                state.timeline()  # revalidate
                print(f"vocabulary: {' '.join(sorted(state.vocabulary))}")
            elif command == "advance":
                when = float(rest)
                if not math.isfinite(when):
                    raise ValueError(f"time {rest} is not finite")
                if when < state.clock:
                    print(f"clock already at {format_stamp(state.clock)}; cannot go back")
                    continue
                state.clock = when
                print(f"t = {format_stamp(state.clock)}")
            elif command == "declare":
                phi = parse_formula_at(rest, lineno, column)
                trial = state.declarations + [(state.clock, (phi,))]
                saved = state.declarations
                state.declarations = trial
                try:
                    state.timeline()
                except NaflError:
                    state.declarations = saved
                    raise
                print(f"declared {format_formula(phi)} at t = {format_stamp(state.clock)}")
            elif command == "truth":
                phi = parse_formula_at(rest, lineno, column)
                tl = state.timeline()
                theory = tl.theory_at(state.clock)
                kind = "superposed" if theory.undecided_atoms() else "classical model"
                print(f"{tl.truth_at(state.clock, phi).value} ({kind})")
            elif command == "model":
                theory = state.timeline().theory_at(state.clock)
                undecided = sorted(theory.undecided_atoms())
                if undecided:
                    print(f"nonclassical (superposed atoms: {' '.join(undecided)})")
                else:
                    print("classical")
                for atom in sorted(theory.vocabulary):
                    print(f"  {atom}: {theory.atom_status(atom).value}")
            elif command == "duality":
                theory = state.timeline().theory_at(state.clock)
                for atom in sorted(theory.vocabulary):
                    d, v = _endpoints(theory.atom_status(atom))
                    print(f"  {atom}: D={d:.1f} V={v:.1f} D^2+V^2={d * d + v * v:.1f}")
            else:
                print(f"unknown command {command!r}")
        except IllegalAxiomError as exc:
            print(f"rejected: illegal axiom: {exc}")
        except InconsistentTheoryError as exc:
            print(f"rejected: inconsistent: {exc}")
        except IllegalPropositionError:
            print("rejected: illegal in theory syntax")
        except (NaflError, ValueError) as exc:
            print(f"rejected: {exc}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nafl",
        description="finitary-logic theories, timelines, and the photon Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a theory file")
    p_check.add_argument("file", help="theory file with atoms/axiom/query directives")
    p_check.set_defaults(func=cmd_check)

    builtin_list = ", ".join(builtin_names())
    p_run = sub.add_parser("run", help="execute a scenario and print its report")
    p_run.add_argument(
        "scenario", help=f"scenario file path or builtin name ({builtin_list})"
    )
    p_run.set_defaults(func=cmd_run)

    p_dual = sub.add_parser("duality", help="print a scenario's complementarity table")
    p_dual.add_argument(
        "scenario", help=f"scenario file path or builtin name ({builtin_list})"
    )
    p_dual.set_defaults(func=cmd_run)

    p_sim = sub.add_parser("sim", help="run the photon Monte Carlo")
    p_sim.add_argument("--photons", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--period", type=float, default=None)
    p_sim.add_argument("--half-extent", type=int, default=None, dest="half_extent")
    p_sim.add_argument("--wire-width", type=float, default=None, dest="wire_width")
    p_sim.add_argument("--envelope", choices=ENVELOPES, default=None)
    p_sim.add_argument(
        "--envelope-width", type=float, default=None, dest="envelope_width"
    )
    p_sim.add_argument("--mode", choices=MODES, default=None)
    p_sim.add_argument("--no-grid", action="store_true", help="remove the wire grid")
    p_sim.add_argument(
        "--preset",
        action="store_true",
        help="wire geometry sized to block ~6.6%% of envelope-shaped arrivals",
    )
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--bins", type=int, default=100)
    p_sim.add_argument("--config", default=None, help="key=value settings file")
    p_sim.add_argument("--out", default=None, help="write histogram CSV here")
    p_sim.set_defaults(func=cmd_sim)

    p_repl = sub.add_parser("repl", help="interactive timeline session")
    p_repl.set_defaults(func=cmd_repl)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnreadableFileError as exc:  # a theory or scenario file
        return _fail(str(exc), EXIT_BAD_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
