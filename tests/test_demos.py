"""Each demo script runs to the end, under the suite's warnings-as-errors
filter."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    runpy.run_path(str(path), run_name="__main__")
