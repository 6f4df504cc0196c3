"""Golden outputs of the nafl command line, and the script that rewrites them.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs ``nafl.cli.main`` in process, with this directory as the
working directory, and stores in ``<case>.txt`` the command, its exit code,
its standard output and its standard error. ``tests/test_golden.py``
compares the stored files with fresh runs byte for byte, so a change that
alters the CLI's output on purpose shows up as a diff of these files.

The cases are ``run`` on every built-in scenario and on every
``scenarios/*.scn`` file, ``check`` on every ``theories/*.thy``
file plus one missing file, and ``sim --config`` on every ``configs/*.cfg``
file.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cases() -> dict[str, list[str]]:
    """Case name -> argument list, in a fixed order."""
    from nafl.scenarios import builtin_names

    found: dict[str, list[str]] = {}
    for name in builtin_names():
        found[f"run-{name}"] = ["run", name]
    for file in _files("scenarios", ".scn"):
        found[f"run-{file[: -len('.scn')]}"] = ["run", f"scenarios/{file}"]
    for file in _files("theories", ".thy") + ["missing.thy"]:
        found[f"check-{file[: -len('.thy')]}"] = ["check", f"theories/{file}"]
    for file in _files("configs", ".cfg"):
        found[f"sim-{file[: -len('.cfg')]}"] = ["sim", "--config", f"configs/{file}"]
    return found


def _files(directory: str, suffix: str) -> list[str]:
    return sorted(f for f in os.listdir(os.path.join(HERE, directory)) if f.endswith(suffix))


def capture(argv: list[str]) -> str:
    """The text stored for one case."""
    from nafl import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return (
        f"$ nafl {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def path_of(case: str) -> str:
    return os.path.join(HERE, f"{case}.txt")


def main() -> int:
    for case, argv in cases().items():
        with open(path_of(case), "w", encoding="utf-8", newline="") as handle:
            handle.write(capture(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
