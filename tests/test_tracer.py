"""What the benchmark reads of nsrecon: the tracer's targets and the
result digest.

perfbench/tracer.py patches nsrecon functions by name and prints one
`perfbench: no ... to trace` line for each name nsrecon lacks; that
name's per-layer metrics then read 0.  The first test pins the list, so a
rename or removal of a traced name (say `experiments.make_dataset`, or the
projector's `nullspace.cg_regularized_normal` and `nullspace.project_null`)
fails here instead of going silent in a benchmark run.  perfbench/run.py
checks each traced output against the untraced one by `digest`, which
hashes the numbers of dataclasses but the repr, and so the address, of
other objects.  The perfbench modules are loaded from their files without
writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nsrecon import nn
from nsrecon.experiments import Problem, TrainConfig, train

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


@pytest.fixture
def perfbench(monkeypatch):
    """A loader of perfbench modules by name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its modules import stats
    had_stats = "stats" in sys.modules

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while they are built
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    yield load
    if not had_stats:
        sys.modules.pop("stats", None)


def test_tracer_finds_every_target_but_the_pinned_ones(capsys, perfbench):
    tracer = perfbench("tracer")
    forward = nn.forward
    with tracer.Tracer().installed():
        assert nn.forward is not forward
    assert nn.forward is forward  # the originals are back
    assert capsys.readouterr().err.splitlines() == [
        f"perfbench: no {name} to trace" for name in UNTRACED]


def test_digest_sees_the_trained_numbers(perfbench):
    # a NetParams that digest did not walk as a dataclass would hash its
    # address: two equal training runs would then differ
    digest = perfbench("run").digest
    cfg, problem = TrainConfig(epochs=3), Problem.benchmark(32)
    params, log = train(cfg, problem)
    assert digest((params, log)) == digest(train(cfg, problem))
    assert digest((params.scaled(2.0), log)) != digest((params, log))
