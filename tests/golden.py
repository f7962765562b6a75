"""Pinned stage values at a reduced configuration, kept in golden.json.

Each stage the paper's claim rests on contributes a few floats: the first
ID and OOD sample of the data path, training losses and parameter sums of
both models, evaluation means, the dc-audit worst gap, the dcnet's
Lipschitz bound, and one classical and one null-space-network rate study.
`test_golden.py` recomputes them and compares at 1e-10 relative (1e-12
absolute near 0).  A change that moves a value regenerates the file with

    PYTHONPATH=src python tests/golden.py --write

and names the old and new values, and why they moved, in CHANGES.md.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from nsrecon import nn
from nsrecon.experiments import (EvalConfig, Problem, TrainConfig,
                                 convergence_study, dc_audit, evaluate,
                                 make_rate_operator, nsn_convergence_study,
                                 train)
from nsrecon.nullspace import svd_projector
from nsrecon.regularize import SourceCondition

PATH = Path(__file__).with_name("golden.json")
RTOL, ATOL = 1e-10, 1e-12
LOSS_EPOCHS = (0, 9, 19)
DELTAS = np.geomspace(1e-1, 1e-5, 5)


def _study(name, report) -> dict:
    values = {f"{name}.error_slope": report.error_slope,
              f"{name}.residual_slope": report.residual_slope}
    for i, entry in enumerate(report.entries):
        for key in ("error", "classical_error"):
            if key in entry:
                values[f"{name}.{key}[{i}]"] = entry[key]
    return values


def compute() -> dict:
    """Every pinned value by name, as floats."""
    problem = Problem.benchmark(32)
    values, params = {}, {}
    for kind, seed in (("ID", 0), ("OOD", 1)):  # two positions, two deltas
        s = problem.dataset(1, kind, seed, 0.05)[0]
        values[f"data.{kind}.row"], values[f"data.{kind}.col"] = s.position
        values[f"data.{kind}.delta"] = s.delta
        for name, img in (("x", s.x), ("y", s.y)):
            values[f"data.{kind}.{name}.sum"] = img.sum()
            values[f"data.{kind}.{name}.sum_sq"] = np.sum(img * img)
    for kind in ("resnet", "dcnet"):
        cfg = TrainConfig(epochs=20, model_kind=kind, data_seed=0,
                          init_seed=1)
        params[kind], log = train(cfg, problem)
        for epoch in LOSS_EPOCHS:
            values[f"train.{kind}.loss[{epoch}]"] = log[epoch]
        for i, (k, b) in enumerate(zip(params[kind].kernels,
                                       params[kind].biases)):
            flat = np.concatenate([k.ravel(), b])
            values[f"train.{kind}.layer{i}.sum"] = flat.sum()
            values[f"train.{kind}.layer{i}.sum_sq"] = flat @ flat
    means = evaluate(params["resnet"], params["dcnet"],
                     EvalConfig(n_per_kind=4), problem).means
    for method, by_kind in means.items():
        for kind, by_metric in by_kind.items():
            for metric, value in by_metric.items():
                values[f"evaluate.{method}.{kind}.{metric}"] = value
    rows = dc_audit(params["dcnet"], "dcnet", 4, 2000, problem=problem)
    values["dc_audit.worst_gap"] = max(
        abs(r["residual_model"] - r["residual_tikhonov"]) / r["y_norm"]
        for r in rows)
    values["lipschitz.dcnet"] = nn.lipschitz_bound(params["dcnet"], (32, 32))

    src = SourceCondition(mu=0.5, rho=1.0)
    _, svd = make_rate_operator(seed=0)
    values.update(_study("rates.classical", convergence_study(
        svd, "tikhonov", src, DELTAS, trials=2, seed=0)))
    _, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=0)
    net = nn.init_params(nn.Architecture(2, 2), 3).scaled(0.25)
    report, lip = nsn_convergence_study(net, svd_projector(svd), svd,
                                        "tikhonov", src, DELTAS, trials=2,
                                        seed=0)
    values.update(_study("rates.nsn", report))
    values["rates.nsn.lipschitz"] = lip
    return {name: float(value) for name, value in values.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {PATH.name} with today's values")
    args = parser.parse_args(argv)
    values = compute()
    if args.write:
        PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(values, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
