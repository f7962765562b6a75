"""The benchmark tracer's targets.

perfbench/tracer.py patches nsrecon functions by name and prints one
`perfbench: no ... to trace` line for each name nsrecon lacks; that
name's per-layer metrics then read 0.  This test pins the list, so a
rename or removal of a traced name (say `experiments.make_dataset`, or the
projector's `nullspace.cg_regularized_normal` and `nullspace.project_null`)
fails here instead of going silent in a benchmark run.  The tracer is
loaded from its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

from nsrecon import nn

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# the traced names nsrecon does not define (ROADMAP item 2 retires them)
UNTRACED = [
    "nsrecon.experiments.tikhonov_reconstruct",
    "nsrecon.regularize.tikhonov_reconstruct",
    "nsrecon.experiments.spectral_reconstruct",
    "nsrecon.regularize.cg_regularized_normal",
    "nsrecon.experiments.project_null",
    "Problem.project_correction",
    "nsrecon.nn.conv2d_circular",
    "nsrecon.nn.correction",
]


def test_tracer_finds_every_target_but_the_pinned_ones(capsys,
                                                        monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the tracer imports stats
    had_stats = "stats" in sys.modules
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        forward = nn.forward
        with tracer.Tracer().installed():
            assert nn.forward is not forward
    finally:
        if not had_stats:
            sys.modules.pop("stats", None)
    assert nn.forward is forward  # the originals are back
    assert capsys.readouterr().err.splitlines() == [
        f"perfbench: no {name} to trace" for name in UNTRACED]
