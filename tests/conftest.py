"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nafl
from nafl.theories import Theory

SRC = str(Path(nafl.__file__).resolve().parents[1])


@pytest.fixture
def run_python():
    """Run a script in a fresh interpreter that imports this nafl; return stdout."""

    def run(script: str, **env: str) -> str:
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, **env},
            capture_output=True, text=True, timeout=120, check=True,
        )
        return proc.stdout

    return run


@pytest.fixture
def table_calls(monkeypatch):
    """Every truth table a Theory computes during the test, as a list of formulas."""
    calls = []
    compute = Theory._table
    monkeypatch.setattr(Theory, "_table", lambda self, phi: calls.append(phi) or compute(self, phi))
    return calls
