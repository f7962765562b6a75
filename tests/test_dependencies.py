"""numpy is the package's only runtime dependency (pyproject.toml): the
library and its CLI run where the test extras cannot be imported."""

import os
import subprocess
import sys
from pathlib import Path

import nsrecon

TEST_EXTRAS = ("scipy", "hypothesis", "pytest")

SCRIPT = f"""
import importlib, pkgutil, sys
for name in {TEST_EXTRAS!r}:
    sys.modules[name] = None           # any import of it raises ImportError
import nsrecon
for mod in pkgutil.walk_packages(nsrecon.__path__, "nsrecon."):
    importlib.import_module(mod.name)
from nsrecon.cli import main
out, cfg = sys.argv[1:]
with open(cfg, "w") as fh:
    fh.write("image_size = 20\\nn = 2\\n")
assert main(["gen-data", "--out", out + "/data", "--config", cfg]) == 0
assert main(["rates", "--out", out + "/rates"]) == 0
"""


def test_library_and_cli_run_without_the_test_extras(tmp_path):
    src = str(Path(nsrecon.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(tmp_path / "cfg")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "data" / "summary.json").exists()
    assert (tmp_path / "rates" / "rates.csv").exists()
