"""Command-line interface.

Subcommands: gen-data, train, eval, dc-audit, rates.  Each accepts --seed,
--out DIR and --config FILE, where the config is flat key=value text.
Outputs are CSV tables, 16-bit PGM image dumps (gen-data also writes each
measurement as float64 .npy), and a JSON summary echoing the effective
configuration; for train, eval and dc-audit it also holds the wall time of
the library call in seconds (wall_s).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import nn
from .data import export_dataset, write_pgm16
from .experiments import (EvalConfig, Problem, TrainConfig, _reconstructions,
                          convergence_study, dc_audit, evaluate,
                          make_rate_operator, save_json_summary, train)
from .regularize import SourceCondition


def parse_config_file(path) -> dict:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg, key, cast, default):
    """cfg[key] cast, or default; a value that does not cast raises a
    ValueError naming the key."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ValueError(f"{key} must be {cast.__name__}, "
                         f"got {cfg[key]!r}") from None


def _problem(cfg) -> Problem:
    """The benchmark problem of the image_size and alpha_tik keys."""
    return Problem.benchmark(_get(cfg, "image_size", int, 64),
                             alpha=_get(cfg, "alpha_tik", float, 0.01))


def _echo(problem: Problem) -> dict:
    """The problem settings for summary.json."""
    return {"image_size": problem.image_size, "alpha_tik": problem.alpha}


def _timed(fn, *args):
    """fn(*args) and its wall time in seconds."""
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def _common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", default=None, help="key=value config file")


def cmd_gen_data(args, cfg):
    n = _get(cfg, "n", int, 20)
    kind = _get(cfg, "kind", str, "ID")
    sigma = _get(cfg, "sigma", float, 0.05)
    patch_size = _get(cfg, "patch_size", int, 20)
    problem = _problem(cfg)
    samples = problem.dataset(n, kind, args.seed, sigma,
                              patch_size=patch_size)
    manifest = export_dataset(samples, args.out)
    save_json_summary(os.path.join(args.out, "summary.json"), {
        "command": "gen-data", "seed": args.seed, "n": n, "kind": kind,
        "sigma": sigma, "image_size": problem.image_size,
        "patch_size": patch_size, "manifest": manifest})


def cmd_train(args, cfg):
    tc = TrainConfig(
        epochs=_get(cfg, "epochs", int, 100),
        lr=_get(cfg, "lr", float, 1e-3),
        weight_decay=_get(cfg, "weight_decay", float, 1e-4),
        sigma=_get(cfg, "sigma", float, 0.05),
        model_kind=_get(cfg, "model_kind", str, "resnet"),
        data_seed=args.seed,
        init_seed=args.seed + _get(cfg, "init_seed_offset", int, 1),
        arch=nn.Architecture(layers=_get(cfg, "layers", int, 5),
                             width=_get(cfg, "width", int, 6)))
    problem = _problem(cfg)
    (params, log), wall_s = _timed(train, tc, problem)
    ckpt = os.path.join(args.out, f"{tc.model_kind}.ckpt")
    nn.save_params(ckpt, tc.arch, params)
    with open(os.path.join(args.out, "loss.csv"), "w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(log):
            fh.write(f"{i},{loss:.17g}\n")
    save_json_summary(os.path.join(args.out, "summary.json"), {
        "command": "train", "seed": args.seed, "config": tc,
        "problem": _echo(problem),
        "checkpoint": ckpt, "wall_s": wall_s,
        "final_loss": log[-1] if log else None})


def cmd_eval(args, cfg):
    ec = EvalConfig(
        n_per_kind=_get(cfg, "n_per_kind", int, 20),
        eval_seed=args.seed + 10_000,
        sigma=_get(cfg, "sigma", float, 0.05))
    n_dump = _get(cfg, "n_dump", int, 3)
    if n_dump < 0:
        raise ValueError("n_dump must be >= 0")
    models = {kind: nn.load_params(cfg[f"{kind}_ckpt"])[1]
              for kind in ("resnet", "dcnet")}
    problem = _problem(cfg)
    report, wall_s = _timed(evaluate, models["resnet"], models["dcnet"], ec,
                            problem)
    report.to_csv(os.path.join(args.out, "eval.csv"))

    # image dumps: ground truth / tikhonov / resnet / dcnet for the first
    # n_dump ID samples
    for _, i, s, recs in _reconstructions(problem, ec.sigma, (n_dump, 0),
                                          ec.eval_seed, models):
        write_pgm16(os.path.join(args.out, f"sample{i}_truth.pgm"), s.x)
        for name, img in recs.items():
            write_pgm16(os.path.join(args.out, f"sample{i}_{name}.pgm"), img)
    save_json_summary(os.path.join(args.out, "summary.json"), {
        "command": "eval", "seed": args.seed, "config": ec,
        "problem": _echo(problem), "wall_s": wall_s,
        "means": report.means})


def cmd_dc_audit(args, cfg):
    model_kind = _get(cfg, "model_kind", str, "dcnet")
    n = _get(cfg, "n", int, 40)
    params = nn.load_params(cfg["ckpt"])[1]
    ec = EvalConfig(sigma=_get(cfg, "sigma", float, 0.05))
    problem = _problem(cfg)
    rows, wall_s = _timed(dc_audit, params, model_kind, n, args.seed, ec,
                          problem)
    with open(os.path.join(args.out, "dc_audit.csv"), "w") as fh:
        fh.write("kind,seed,residual_tikhonov,residual_model,y_norm\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['seed']},{r['residual_tikhonov']:.17g},"
                     f"{r['residual_model']:.17g},{r['y_norm']:.17g}\n")
    max_rel = max(abs(r["residual_model"] - r["residual_tikhonov"])
                  / r["y_norm"] for r in rows)
    save_json_summary(os.path.join(args.out, "summary.json"), {
        "command": "dc-audit", "seed": args.seed, "model_kind": model_kind,
        "n": n, "problem": _echo(problem), "wall_s": wall_s,
        "max_relative_residual_gap": max_rel})


def cmd_rates(args, cfg):
    mu = _get(cfg, "mu", float, 0.5)
    rho = _get(cfg, "rho", float, 1.0)
    filter_kind = _get(cfg, "filter", str, "tikhonov")
    trials = _get(cfg, "trials", int, 10)
    c = _get(cfg, "c", float, 1.0)
    n_deltas = _get(cfg, "n_deltas", int, 5)
    deltas = np.geomspace(_get(cfg, "delta_max", float, 1e-1),
                          _get(cfg, "delta_min", float, 1e-5), n_deltas)
    _, svd = make_rate_operator(seed=args.seed)
    src = SourceCondition(mu=mu, rho=rho)
    report = convergence_study(svd, filter_kind, src, deltas, trials,
                               seed=args.seed, c=c)
    report.to_csv(os.path.join(args.out, "rates.csv"))
    save_json_summary(os.path.join(args.out, "summary.json"), {
        "command": "rates", "seed": args.seed, "mu": mu, "rho": rho,
        "filter": filter_kind, "trials": trials, "c": c,
        "error_slope": report.error_slope,
        "error_slope_halfwidth": report.error_slope_hw,
        "residual_slope": report.residual_slope,
        "residual_slope_halfwidth": report.residual_slope_hw,
        "theory_error_slope": 2 * mu / (2 * mu + 1)})


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "dc-audit": cmd_dc_audit,
    "rates": cmd_rates,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsrecon",
        description="Data-consistent learned reconstruction experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _common(subs.add_parser(name))
    args = parser.parse_args(argv)
    created = not os.path.exists(args.out)
    try:
        cfg = parse_config_file(args.config) if args.config else {}
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](args, cfg)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"nsrecon {args.command}: error: {exc}", file=sys.stderr)
        # a failed run leaves no empty output directory of its own making
        if created and os.path.isdir(args.out) and not os.listdir(args.out):
            os.rmdir(args.out)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
