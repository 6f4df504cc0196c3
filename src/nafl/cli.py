"""Command-line front end.

Three subcommands:

* check    - classify a theory file's atoms and queries;
* run      - execute a scenario and print the full timeline report, whose
             duality table checks D^2 + V^2 <= 1 at every labeled time;
* sim      - run the photon Monte Carlo and summarize it.

Exit codes: 0 success; 1 malformed input, no numpy for sim, or stdout
closed early by its reader (a broken pipe); 2 a well-formed theory or run
was rejected; 3 a soundness check failed (single-model-kind audit or
duality bound); 4 an expect-reject annotation did not match what actually
happened.

Every NaflError reaches ``main``, which prints ``error: <prefix><message>``
on stderr, with the error class's ``prefix``, and exits with its
``exit_code``: 1 for input the program cannot read (parse, vocabulary,
validation, config), 2 for a rejection (illegal axiom, inconsistency, a
failed scenario event, too few samples per bin). Only sim's skipped
reconstruction catches one first.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TextIO

from . import photonsim
from .errors import (
    ConfigError,
    NaflError,
    TooFewSamplesError,
    UnreadableFileError,
    read_text,
)
from .scenarios import builtin_names, load_scenario, run_scenario
from .simchoices import ENVELOPES, MODES
from .syntax import format_formula, split_line
from .theories import load_theory

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CHECK_FAILED = 3
EXIT_EXPECTATION_MISMATCH = 4

def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    theory, queries = load_theory(args.file)
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
        if theory.is_legal(query):
            print(f"query {rendered}: legal, {theory.classify(query).value}")
        else:
            print(f"query {rendered}: illegal in the theory syntax")
    return EXIT_OK


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(load_scenario(args.scenario))
    print(report.render())
    if not report.bcp.passed or not report.duality.passed:
        return EXIT_CHECK_FAILED
    if not report.all_expectations_matched:
        return EXIT_EXPECTATION_MISMATCH
    return EXIT_OK


# --------------------------------------------------------------------------
# sim
# --------------------------------------------------------------------------

_GRID_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _grid_switch(text: str) -> bool:
    try:
        return _GRID_WORDS[text.lower()]
    except KeyError:
        raise ValueError(
            f"grid wants one of {'/'.join(_GRID_WORDS)}; got {text!r}"
        ) from None


# Every SimConfig setting that a --config file or a flag may give: the
# reader of its value and the choices its flag offers. Each has a flag named
# after it, except grid, whose flag is --no-grid. A flag left out stays None,
# so it overrides the file only when given.
_SETTINGS = {
    "photons": (int, None),
    "seed": (int, None),
    "period": (float, None),
    "half_extent": (int, None),
    "wire_width": (float, None),
    "envelope": (str, ENVELOPES),
    "envelope_width": (float, None),
    "mode": (str, MODES),
    "grid": (_grid_switch, None),
}


def _read_config_file(path: str) -> dict:
    """The settings of a ``--config`` file, one ``key = value`` a line, with
    comments cut by ``syntax.split_line``'s rule; each error names the file,
    the line and the column of the key or value at fault."""
    values: dict = {}
    try:
        for number, raw in enumerate(read_text(path).splitlines(), 1):
            words = split_line(raw)
            if words is None:
                continue
            _, start, rest, column = words
            line = raw[start - 1 : column - 1 + len(rest)].rstrip()  # without its comment
            key, equals, value = line.partition("=")
            key = key.rstrip()
            if not equals:
                raise ConfigError(f"expected key=value, got {line!r} (line {number}, column {start})")
            if key not in _SETTINGS:
                raise ConfigError(f"unknown setting {key!r} (line {number}, column {start})")
            try:
                values[key] = _SETTINGS[key][0](value.strip())
            except ValueError as exc:
                where = start + len(line) - len(value.lstrip())
                raise ConfigError(f"{exc} (line {number}, column {where})") from None
    except (ConfigError, UnreadableFileError) as exc:
        raise type(exc)(f"config file: {exc}") from None
    return values


def _unwritable(path: str, exc: OSError) -> NaflError:
    return NaflError(f"cannot write the histogram to {path}: {exc.strerror or exc}")


def cmd_sim(args: argparse.Namespace) -> int:
    try:
        photonsim.SimConfig  # the first read executes the module, which imports numpy
    except ImportError as exc:
        return _fail(f"nafl sim needs numpy: {exc}", EXIT_BAD_INPUT)
    settings: dict = {}
    if args.preset:
        preset = photonsim.calibration_preset(1, 0)
        settings.update(period=preset.period, wire_width=preset.wire_width)
    if args.config:
        settings.update(_read_config_file(args.config))
    for name in _SETTINGS:
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    settings.setdefault("photons", 100_000)
    settings.setdefault("seed", 0)
    cfg = photonsim.SimConfig(**settings)
    photonsim._check_run(args.bins, args.workers)
    photonsim._wire_windows(cfg, args.bins)
    if not args.out:
        return _run_sim(cfg, args, None)
    # The histogram file is opened after every check and before the run: a
    # refused run leaves no file, and an unwritable path costs no Monte Carlo.
    try:
        out = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise _unwritable(args.out, exc) from None
    with out:
        return _run_sim(cfg, args, out)


def _run_sim(cfg: photonsim.SimConfig, args: argparse.Namespace, out: TextIO | None) -> int:
    """Run the Monte Carlo, print its summary and write its histogram to out."""
    result = photonsim.simulate(cfg, workers=args.workers, bins=args.bins)
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
        recon = photonsim.reconstruct(result)
    except TooFewSamplesError as exc:
        print(f"reconstruction skipped: {exc}")
        code = exc.exit_code
    else:
        print(
            f"chi-square vs coherent pattern: chi2={recon.chi2:.3f} "
            f"dof={recon.dof} p={recon.p_value:.4g}"
        )
        aligned = "yes" if recon.minima_aligned else "no"
        print(f"fringe minima aligned with wire centers: {aligned}")

    if out is not None:
        counts, edges = result.counts, result.bin_edges
        lines = ["bin_left,bin_right,count"]
        for i, count in enumerate(counts):
            lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(count)}")
        try:
            out.write("\n".join(lines) + "\n")
            out.flush()
        except OSError as exc:
            raise _unwritable(args.out, exc) from None
        print(f"histogram written to {args.out}")
    return code


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

    p_sim = sub.add_parser("sim", help="run the photon Monte Carlo")
    for name, (read, choices) in _SETTINGS.items():
        if name == "grid":
            p_sim.add_argument("--no-grid", action="store_false", default=None,
                               dest=name, help="remove the wire grid")
        else:
            p_sim.add_argument(f"--{name.replace('_', '-')}", type=read,
                               choices=choices, default=None, dest=name)
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except NaflError as exc:
            code = _fail(exc.prefix + str(exc), exc.exit_code)
        sys.stdout.flush()  # a reader that closed stdout early fails here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
