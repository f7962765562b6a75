"""Command-line interface.

Subcommands: gen-data, train, eval, dc-audit, rates.  Each accepts --seed,
--out DIR and --config FILE, flat key=value text of its COMMANDS keys.
Outputs are CSV tables, each a list of the library's records written by
`data.write_csv`, 16-bit PGM image dumps (gen-data also writes each
measurement as float64 .npy), and a JSON summary echoing the effective
configuration; for train, eval and dc-audit it also holds the wall time of
the library call in seconds (wall_s).

Each cmd_* takes (args, opts, problem), writes its outputs under args.out
and returns its own summary fields.  `main` builds the benchmark Problem of
the image_size and alpha_tik keys (gen-data reconstructs nothing and has
only image_size; rates gets None) and writes every summary.json: command,
seed, the problem echo and those fields.  train, eval and dc-audit draw
PATCH_SIZE-pixel patches: `main` refuses a smaller image_size up front.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from . import nn
from .data import PATCH_SIZE, export_dataset, write_csv, write_pgm16
from .experiments import (EvalConfig, Problem, TrainConfig, _eval_report,
                          _reconstructions, convergence_study, dc_audit,
                          make_rate_operator, save_json_summary, train)
from .regularize import FILTER_QUALIFICATION, FilterSpec, SourceCondition


def parse_config_file(path) -> dict:
    """Flat key=value config, each key set once; '#' starts a comment."""
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: {key} set twice")
            cfg[key] = value
    return cfg


def _options(cfg: dict, keys: dict, path) -> dict:
    """The defaults of keys (key -> (type, default)), overridden by cfg's
    values cast to their type.  Raises ValueError naming the file on a key
    not in keys, naming the key on a value that does not cast, and naming
    the first key that has no default and that cfg leaves unset."""
    opts = {key: default for key, (_, default) in keys.items()}
    for key, value in cfg.items():
        if key not in keys:
            raise ValueError(f"{path}: unknown key {key!r}")
        cast = keys[key][0]
        try:
            opts[key] = cast(value)
        except ValueError:
            raise ValueError(f"{key} must be {cast.__name__}, "
                             f"got {value!r}") from None
    for key, value in opts.items():
        if value is None:
            raise ValueError(f"missing key {key!r}")
    return opts


def _timed(fn, *args):
    """fn(*args) and its wall time in seconds."""
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def _load(path):
    """A checkpoint's parameters and the SHA-256 of its bytes."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return nn.load_params(path)[1], digest


def cmd_gen_data(args, opts, problem):
    if opts["n"] < 1:
        raise ValueError("n must be >= 1")
    # sample i alone, as element i of problem.dataset(n, ...); the first
    # draw checks kind, sigma and patch_size before any file is written
    samples = (problem.dataset(1, opts["kind"], args.seed + i, opts["sigma"],
                               opts["patch_size"])[0]
               for i in range(opts["n"]))
    return {**opts, "manifest": export_dataset(samples, args.out)}


def cmd_train(args, opts, problem):
    tc = TrainConfig(
        epochs=opts["epochs"], lr=opts["lr"],
        weight_decay=opts["weight_decay"], sigma=opts["sigma"],
        model_kind=opts["model_kind"], data_seed=args.seed,
        init_seed=args.seed + opts["init_seed_offset"],
        arch=nn.Architecture(layers=opts["layers"], width=opts["width"]))
    (params, log), wall_s = _timed(train, tc, problem)
    ckpt = os.path.join(args.out, f"{tc.model_kind}.ckpt")
    nn.save_params(ckpt, params)
    write_csv(os.path.join(args.out, "loss.csv"),
              [{"epoch": i, "loss": loss} for i, loss in enumerate(log)],
              ("epoch", "loss"))
    return {"config": tc, "checkpoint": ckpt, "wall_s": wall_s,
            "final_loss": log[-1] if log else None}


def cmd_eval(args, opts, problem):
    ec = EvalConfig(n_per_kind=opts["n_per_kind"],
                    eval_seed=args.seed + 10_000, sigma=opts["sigma"])
    n_dump = opts["n_dump"]
    if not 0 <= n_dump <= ec.n_per_kind:
        raise ValueError(f"n_dump must be in 0..n_per_kind, got {n_dump}")
    models, digests = {}, {}
    for kind in ("resnet", "dcnet"):
        models[kind], digests[kind] = _load(opts[f"{kind}_ckpt"])
    dumps = []

    def stream():  # evaluate's samples, keeping the first n_dump ID ones
        for kind, i, s, recs in _reconstructions(
                problem, ec.sigma, (ec.n_per_kind,) * 2, ec.eval_seed, models):
            if kind == "ID" and i < n_dump:
                dumps.append((i, s, recs))
            yield kind, i, s, recs

    report, wall_s = _timed(_eval_report, problem, stream())
    write_csv(os.path.join(args.out, "eval.csv"), report.rows)
    # PGMs of the dumped samples: ground truth and each reconstruction
    for i, s, recs in dumps:
        for name, img in {"truth": s.x, **recs}.items():
            write_pgm16(os.path.join(args.out, f"sample{i}_{name}.pgm"), img)
    return {"config": ec, "n_dump": n_dump,
            "resnet_ckpt": opts["resnet_ckpt"],
            "resnet_ckpt_sha256": digests["resnet"],
            "dcnet_ckpt": opts["dcnet_ckpt"],
            "dcnet_ckpt_sha256": digests["dcnet"], "wall_s": wall_s,
            "means": report.means}


def cmd_dc_audit(args, opts, problem):
    model_kind, n = opts["model_kind"], opts["n"]
    params, digest = _load(opts["ckpt"])
    ec = EvalConfig(sigma=opts["sigma"])
    rows, wall_s = _timed(dc_audit, params, model_kind, n, args.seed, ec,
                          problem)
    write_csv(os.path.join(args.out, "dc_audit.csv"), rows)
    max_rel = max(abs(r["residual_model"] - r["residual_tikhonov"])
                  / r["y_norm"] for r in rows)
    return {**opts, "ckpt_sha256": digest, "wall_s": wall_s,
            "max_relative_residual_gap": max_rel}


def cmd_rates(args, opts, problem):
    mu, kind = opts["mu"], opts["filter"]
    deltas = np.geomspace(opts["delta_max"], opts["delta_min"],
                          opts["n_deltas"])
    src = SourceCondition(mu, opts["rho"])  # checked before the draw,
    FilterSpec(kind, 1.0)                   # as is the filter kind
    _, svd = make_rate_operator(seed=args.seed)
    report = convergence_study(svd, kind, src, deltas, opts["trials"],
                               args.seed, opts["c"])
    write_csv(os.path.join(args.out, "rates.csv"), report.entries)
    # the a-priori rule's error bound: delta^(2 min(mu, mu_max) / (2 mu + 1))
    mu_max = FILTER_QUALIFICATION[kind]["mu_max"]
    return {**opts, "error_slope": report.error_slope,
            "error_slope_halfwidth": report.error_slope_hw,
            "residual_slope": report.residual_slope,
            "residual_slope_halfwidth": report.residual_slope_hw,
            "theory_error_slope": 2 * min(mu, mu_max) / (2 * mu + 1)}


_IMAGE_SIZE = {"image_size": (int, 64)}
_PROBLEM_KEYS = {**_IMAGE_SIZE, "alpha_tik": (float, 0.01)}
# Each subcommand and its config keys: key -> (type, default).  A key
# without a default (a checkpoint path) must be set by the config.
COMMANDS = {
    "gen-data": (cmd_gen_data, {
        "n": (int, 20), "kind": (str, "ID"), "sigma": (float, 0.05),
        "patch_size": (int, PATCH_SIZE), **_IMAGE_SIZE}),
    "train": (cmd_train, {
        "epochs": (int, 100), "lr": (float, 1e-3),
        "weight_decay": (float, 1e-4), "sigma": (float, 0.05),
        "model_kind": (str, "resnet"), "init_seed_offset": (int, 1),
        "layers": (int, 5), "width": (int, 6), **_PROBLEM_KEYS}),
    "eval": (cmd_eval, {
        "n_per_kind": (int, 20), "sigma": (float, 0.05), "n_dump": (int, 3),
        "resnet_ckpt": (str, None), "dcnet_ckpt": (str, None),
        **_PROBLEM_KEYS}),
    "dc-audit": (cmd_dc_audit, {
        "model_kind": (str, "dcnet"), "n": (int, 40), "ckpt": (str, None),
        "sigma": (float, 0.05), **_PROBLEM_KEYS}),
    "rates": (cmd_rates, {
        "mu": (float, 0.5), "rho": (float, 1.0), "filter": (str, "tikhonov"),
        "trials": (int, 10), "c": (float, 1.0), "n_deltas": (int, 5),
        "delta_max": (float, 1e-1), "delta_min": (float, 1e-5)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsrecon",
        description="Data-consistent learned reconstruction experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--config", help="key=value config file")
    args = parser.parse_args(argv)
    created = not os.path.exists(args.out)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        cfg = parse_config_file(args.config) if args.config else {}
        command, keys = COMMANDS[args.command]
        opts = _options(cfg, keys, args.config)
        summary = {"command": args.command, "seed": args.seed}
        problem = None
        if "image_size" in opts:       # echoed under "problem" only
            echo = {k: opts.pop(k) for k in _PROBLEM_KEYS if k in opts}
            if "patch_size" not in opts and echo["image_size"] < PATCH_SIZE:
                raise ValueError(
                    f"image_size must be >= {PATCH_SIZE} to hold the "
                    f"{PATCH_SIZE}-pixel patch that {args.command} draws, "
                    f"got {echo['image_size']}")
            alpha = {"alpha": echo["alpha_tik"]} if "alpha_tik" in echo else {}
            problem = Problem.benchmark(echo["image_size"], **alpha)
            summary["problem"] = echo
        os.makedirs(args.out, exist_ok=True)
        summary.update(command(args, opts, problem))
        save_json_summary(os.path.join(args.out, "summary.json"), summary)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"nsrecon {args.command}: error: {exc}", file=sys.stderr)
        # a failed run leaves no empty output directory of its own making
        if created and os.path.isdir(args.out) and not os.listdir(args.out):
            os.rmdir(args.out)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
