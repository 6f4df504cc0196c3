"""Every demo runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, run_python):
    # run_python fails the test on a nonzero exit status.
    assert run_python(f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
