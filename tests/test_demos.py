"""Each demo script, and README's python example, runs to the end under
the suite's warnings-as-errors filter."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    runpy.run_path(str(path), run_name="__main__")


def test_readme_example_runs():
    readme = ROOT / "README.md"
    (example,) = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                            re.M | re.S)
    exec(compile(example, str(readme), "exec"), {"__name__": "__main__"})
