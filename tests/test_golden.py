"""The CLI's output, exit codes included, against the stored golden files.

A deliberate change of output is made by running
``tests/golden/regenerate.py`` and committing the diff it leaves.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("case", list(golden.cases()))
def test_cli_output_matches_the_golden_file(case):
    stored = Path(golden.path_of(case)).read_bytes()
    assert golden.capture(golden.cases()[case]).encode("utf-8") == stored
