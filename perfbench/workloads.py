"""The three benchmark workloads, built from a seed, with their output checks.

A workload is one round of stages: calls into the public nsrecon API that
the harness repeats for the measured time.  Every stage counts operations
(an Adam step, an evaluated or audited sample, a rate trial, a Lipschitz
certificate) and has a check that returns how many of them failed, with
the thresholds of the acceptance tests.  `corrupt` turns a real output
into a wrong one, which the harness uses to test the check itself.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nsrecon import experiments, nn
from nsrecon.experiments import (MODEL_KINDS, EvalConfig, Problem,
                                 TrainConfig, make_rate_operator)
from nsrecon.nullspace import iterative_projector
from nsrecon.regularize import SourceCondition

DELTAS = np.geomspace(1e-1, 1e-5, 5)   # noise levels of criteria 5 and 6
CLASSICAL_TRIALS = 10                  # as in criterion 5
CLASSICAL_OPERATORS = 8                # per round; see rate_study
NSN_TRIALS = 1                         # criterion 6 uses 10; see rate_study
AUDIT_SAMPLES = 40                     # as in criterion 1
DC_GAP_TOL = 1e-10                     # criterion 1
SLOPE_TOL = 0.1                        # criterion 6
LIP_SLACK = 1.05                       # criterion 6
IMAGE_SHAPE = (64, 64)


@dataclass
class Stage:
    name: str
    metric: str          # report name: "<x>_per_s" is ops per second,
                         # "<x>_s" the time of one call
    span: str | None     # span the harness records around the call
    ops: int
    run: Callable[[], object]
    check: Callable[[object, dict], int]  # (output, round outputs) -> failed
    corrupt: Callable[[object], object]


@dataclass
class Workload:
    stages: list[Stage]
    main: str            # stage metric reported as main_per_s
    side: str            # stage metric reported as side_per_s
    round_metric: str | None = None  # name for the round's ops per second
    extras: Callable[[dict], dict] = lambda outputs: {}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _params_finite(params: nn.NetParams) -> bool:
    return all(np.all(np.isfinite(a)) for a in params.kernels + params.biases)


def _nan_params(params: nn.NetParams) -> nn.NetParams:
    bad = params.copy()
    bad.kernels[0].flat[0] = np.nan
    return bad


# -- stripe_train -----------------------------------------------------------

def _check_train(epochs):
    def check(out, outputs):
        params, log = out
        if not _params_finite(params):
            return epochs
        return epochs - len(log) + sum(not math.isfinite(v) for v in log)
    return check


def stripe_train(seed: int) -> Workload:
    problem = Problem.benchmark()
    stages = []
    for kind in MODEL_KINDS:
        cfg = TrainConfig(model_kind=kind, data_seed=seed, init_seed=seed + 1)
        stages.append(Stage(
            name=f"train_{kind}", metric=f"train_{kind}_epochs_per_s",
            span="experiments.train", ops=cfg.epochs,
            run=lambda cfg=cfg: experiments.train(cfg, problem),
            check=_check_train(cfg.epochs),
            corrupt=lambda out: (_nan_params(out[0]), out[1])))
    return Workload(stages, main="train_resnet_epochs_per_s",
                    side="train_dcnet_epochs_per_s",
                    round_metric="train_epochs_per_s")


# -- stripe_eval ------------------------------------------------------------

_ROW_VALUES = ("psnr", "ssim", "mse", "residual")


def _check_evaluate(n_samples):
    def check(report, outputs):
        bad = set()
        samples = set()
        for row in report.rows:
            key = (row["kind"], row["index"])
            samples.add(key)
            if not _finite(*(row[v] for v in _ROW_VALUES)):
                bad.add(key)
        failed = n_samples - len(samples) + len(bad)
        m = report.means
        id_psnr = {k: m[k]["ID"]["psnr"] for k in m}
        ood_psnr = {k: m[k]["OOD"]["psnr"] for k in m}
        ordered = (max(id_psnr, key=id_psnr.get) == "resnet"
                   and max(ood_psnr, key=ood_psnr.get) == "dcnet"
                   and ood_psnr["dcnet"] > ood_psnr["tikhonov"])
        return failed if ordered else n_samples
    return check


def _corrupt_evaluate(report):
    """The first row as a non-finite reconstruction would report it."""
    bad = copy.deepcopy(report)
    bad.rows[0].update({v: float("nan") for v in _ROW_VALUES})
    return bad


def _check_audit(rows, outputs):
    failed = AUDIT_SAMPLES - len(rows)
    for r in rows:
        ok = (_finite(r["residual_model"], r["residual_tikhonov"])
              and r["y_norm"] > 0
              and abs(r["residual_model"] - r["residual_tikhonov"])
              <= DC_GAP_TOL * r["y_norm"])
        failed += not ok
    return failed


def _corrupt_audit(rows):
    bad = copy.deepcopy(rows)
    bad[0]["residual_model"] += 1e-6 * bad[0]["y_norm"]
    return bad


def stripe_eval(seed: int) -> Workload:
    """The models are criterion 8's first pair (data seed 0, init seed 1);
    the seed draws the evaluated and audited samples.  With other training
    seeds the dcnet's OOD PSNR can fall below Tikhonov's (it did for two
    of 34 tried), which criterion 8 tolerates by a vote over three seeds;
    this pair keeps every ordering on every evaluation seed tried."""
    problem = Problem.benchmark()
    models = {kind: experiments.train(
        TrainConfig(model_kind=kind, data_seed=0, init_seed=1),
        problem)[0] for kind in MODEL_KINDS}
    cfg = EvalConfig(eval_seed=10_000 + seed)
    n_eval = 2 * cfg.n_per_kind
    stages = [
        Stage(name="evaluate", metric="eval_samples_per_s",
              span="experiments.evaluate", ops=n_eval,
              run=lambda: experiments.evaluate(
                  models["resnet"], models["dcnet"], cfg, problem),
              check=_check_evaluate(n_eval), corrupt=_corrupt_evaluate),
        Stage(name="dc_audit", metric="audit_samples_per_s",
              span="experiments.dc_audit", ops=AUDIT_SAMPLES,
              run=lambda: experiments.dc_audit(
                  models["dcnet"], "dcnet", AUDIT_SAMPLES, 2000 + seed, cfg,
                  problem),
              check=_check_audit, corrupt=_corrupt_audit),
        Stage(name="certify", metric="certify_s", span=None, ops=1,
              run=lambda: nn.lipschitz_bound(models["dcnet"], IMAGE_SHAPE),
              check=lambda lip, outputs: int(not (math.isfinite(lip)
                                                  and lip >= 1.0)),
              corrupt=lambda lip: float("nan")),
    ]

    def extras(outputs):
        means = outputs["evaluate"].means
        return {"psnr_ood_dcnet_db": (means["dcnet"]["OOD"]["psnr"], "dB"),
                "psnr_id_resnet_db": (means["resnet"]["ID"]["psnr"], "dB")}
    return Workload(stages, main="eval_samples_per_s",
                    side="audit_samples_per_s", extras=extras)


# -- rate_study -------------------------------------------------------------

def _check_classical(report, outputs):
    failed = (len(DELTAS) - len(report.entries)) * CLASSICAL_TRIALS
    for e in report.entries:
        failed += CLASSICAL_TRIALS * (not _finite(e["error"], e["residual"]))
    return failed


def _corrupt_classical(report):
    bad = copy.deepcopy(report)
    bad.entries[0]["error"] = float("nan")
    return bad


def _check_nsn(classical_stage):
    def check(out, outputs):
        report, lip = out
        ops = len(DELTAS) * NSN_TRIALS
        classical = outputs.get(classical_stage)
        if (classical is None or not math.isfinite(lip)
                or not abs(report.error_slope - classical.error_slope)
                <= SLOPE_TOL):
            return ops
        failed = (len(DELTAS) - len(report.entries)) * NSN_TRIALS
        for e in report.entries:
            ok = (_finite(e["error"], e["classical_error"], e["residual"])
                  and e["error"] <= lip * e["classical_error"] * LIP_SLACK)
            failed += NSN_TRIALS * (not ok)
        return failed
    return check


def _corrupt_nsn(out):
    report, lip = copy.deepcopy(out)
    e = report.entries[0]
    e["error"] = 2.0 * lip * e["classical_error"] * LIP_SLACK
    return report, lip


def rate_study(seed: int) -> Workload:
    """Criteria 5 and 6 on operators drawn from the seed.

    The NSN studies take one trial per noise level, so that a call lasts
    about a second and a run holds many; over seeds 0-15 their slopes
    stayed within 0.02 of the classical ones, against the tolerance of
    0.1.  A classical study lasts about 12 ms, and ran twice as fast with
    some placements of its matrices relative to cache lines as with
    others, so each round runs them on CLASSICAL_OPERATORS operators,
    each allocated afresh.
    """
    svds = [make_rate_operator(seed=CLASSICAL_OPERATORS * seed + k)[1]
            for k in range(CLASSICAL_OPERATORS)]
    op, svd_kernel = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=seed)
    proj = iterative_projector(op)
    params = nn.init_params(nn.Architecture(layers=2, width=2),
                            seed=seed + 2).scaled(0.25)
    stages = []
    for k, svd in enumerate(svds):
        for mu, kind in ((0.5, "tikhonov"), (1.0, "tikhonov"),
                         (1.0, "tsvd")):
            src = SourceCondition(mu=mu, rho=1.0)
            stages.append(Stage(
                name=f"classical_{kind}_mu{mu}_op{k}",
                metric="classical_trials_per_s",
                span="experiments.convergence_study",
                ops=len(DELTAS) * CLASSICAL_TRIALS,
                run=lambda svd=svd, kind=kind, src=src:
                    experiments.convergence_study(
                        svd, kind, src, DELTAS, trials=CLASSICAL_TRIALS,
                        seed=seed),
                check=_check_classical, corrupt=_corrupt_classical))
    for mu in (0.5, 1.0):
        src = SourceCondition(mu=mu, rho=1.0)
        stages.append(Stage(
            name=f"nsn_tikhonov_mu{mu}", metric="nsn_trials_per_s",
            span="experiments.nsn_convergence_study",
            ops=len(DELTAS) * NSN_TRIALS,
            run=lambda src=src: experiments.nsn_convergence_study(
                params, proj, svd_kernel, "tikhonov", src, DELTAS,
                trials=NSN_TRIALS, seed=seed),
            check=_check_nsn(f"classical_tikhonov_mu{mu}_op0"),
            corrupt=_corrupt_nsn))
    return Workload(stages, main="nsn_trials_per_s",
                    side="classical_trials_per_s")


WORKLOADS = {"stripe_train": stripe_train, "stripe_eval": stripe_eval,
             "rate_study": rate_study}
