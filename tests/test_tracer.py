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
other objects.  The tracer also takes image shapes from what nn.forward
and nn.backward return, and the rate_study workload's speed rests on how
often its projector solves; the last tests pin both.  The perfbench
modules are loaded from their files without writing bytecode next to
them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import numpy as np

from nsrecon import experiments, nn, nullspace
from nsrecon.experiments import (MODEL_KINDS, EvalConfig, Problem,
                                 TrainConfig, evaluate, make_rate_operator,
                                 train)
from nsrecon.linops import cg_regularized_normal

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


def test_projector_solve_is_one_span_of_its_block_steps(perfbench):
    # the tracer reads `converged` and `iters` of the projector's
    # CgResult: one traced iterative_projector call on the 16x16 rate
    # operator is one linops.cg.projector span whose work is the solve's
    # block steps, and a second call on the same image reuses the held
    # directions and records none
    op, _ = make_rate_operator()
    z = np.random.default_rng(0).standard_normal((16, 16))
    steps = cg_regularized_normal(
        op, op.adjoint(op.apply(z)), tol=nullspace._PROJECTOR_TOL,
        max_iters=nullspace._PROJECTOR_MAX_ITERS).iters
    tracer = perfbench("tracer").Tracer()
    proj = nullspace.iterative_projector(op)
    spans = []
    with tracer.installed():
        cg = tracer.names.index("linops.cg.projector")
        for _ in range(2):
            proj(z)
            spans.append([work for name, work in zip(tracer.name,
                                                     tracer.work)
                          if name == cg])
    assert spans == [[float(steps)]] * 2 and steps > 0
    assert tracer.unconverged == 0


def test_traced_training_and_evaluation_record_their_work(perfbench):
    # the tracer counts conv FLOPs from the image shape of nn.forward's
    # output [0] and of nn.backward's input gradient [1]: a forward that
    # returned a bare array, or a backward without the input gradient,
    # would break every traced run.  It counts samples by the length of
    # make_dataset's list, so a training call's samples are its epochs
    tracer = perfbench("tracer").Tracer()
    problem = Problem.benchmark(32)
    models, drawn = {}, []
    with tracer.installed():
        dataset = tracer.names.index("data.make_dataset")
        for kind in MODEL_KINDS:
            first = len(tracer.name)
            models[kind] = train(TrainConfig(model_kind=kind, epochs=3),
                                 problem)[0]
            drawn.append(sum(work for name, work in zip(
                tracer.name[first:], tracer.work[first:]) if name == dataset))
        evaluate(models["resnet"], models["dcnet"], EvalConfig(n_per_kind=1),
                 problem)
    assert drawn == [3.0, 3.0]
    name, _, _, _, work = tracer.columns()
    for span in ("nn.forward", "nn.backward", "data.make_dataset"):
        done = work[name == tracer.names.index(span)]
        assert done.size > 0 and np.all(done > 0), span


def test_traced_evaluate_scores_each_sample_in_one_ssim_call(perfbench):
    # _eval_report scores a sample's three reconstructions in one stacked
    # ssim call, so metrics.ssim counts samples, not rows
    tracer = perfbench("tracer").Tracer()
    problem = Problem.benchmark(32)
    params = {kind: nn.init_params(nn.Architecture(2, 2), 0)
              for kind in MODEL_KINDS}
    with tracer.installed():
        report = evaluate(params["resnet"], params["dcnet"],
                          EvalConfig(n_per_kind=2), problem)
    name = tracer.columns()[0]
    assert len(report.rows) == 12
    assert np.sum(name == tracer.names.index("metrics.ssim")) == 4
    assert np.sum(name == tracer.names.index("metrics.psnr")) == 12


@pytest.mark.parametrize("seed", [0, 1])
def test_rate_study_round_solves_once_and_reuses_once(perfbench, monkeypatch,
                                                      seed):
    # perfbench builds rate_study afresh every round, so each measured
    # round's projector solves once, in the mu = 1/2 stage, and the mu = 1
    # stage is served by the held directions (ROADMAP item 10): that pair
    # is what main_per_s measures.  The net's ReLUs never fire at seed 0
    # and do at seed 1
    stages = perfbench("workloads").rate_study(seed).stages[-2:]
    solve, network = nullspace.cg_regularized_normal, experiments._network
    solves, fired = [], []

    def counted(op, rhs, **kwargs):
        solves.append(rhs.shape)
        return solve(op, rhs, **kwargs)

    def recorded(params, x, projector):
        # given a cache, the forward keeps the row matrices read here
        out, cache = network(params, x, projector, {})
        fired.append(bool(np.any(cache["rows"][1] > 0)))
        return out, cache

    monkeypatch.setattr(nullspace, "cg_regularized_normal", counted)
    monkeypatch.setattr(experiments, "_network", recorded)
    per_stage = []
    for stage in stages:
        solves.clear()
        stage.run()
        per_stage.append(len(solves))
    assert [stage.name for stage in stages] == ["nsn_tikhonov_mu0.5",
                                                "nsn_tikhonov_mu1.0"]
    assert per_stage == [1, 0]
    assert fired == [seed == 1] * 2
