"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 8 trains the full pipeline three times; its models come from the
session fixture `criterion8_params` (tests/conftest.py) and are shared with
criterion 1 through a module fixture.
"""

import numpy as np
import pytest

from nsrecon import nn
from nsrecon.experiments import (EvalConfig, Problem, convergence_study,
                                 dc_audit, evaluate, make_rate_operator,
                                 nsn_convergence_study)
from nsrecon.linops import dense_svd, pseudo_inverse_apply
from nsrecon.metrics import psnr, ssim
from nsrecon.nullspace import (iterative_projector, mask_projector,
                               svd_projector)
from nsrecon.regularize import (FILTER_KINDS, FILTER_QUALIFICATION,
                                FilterSpec, SourceCondition, filter_value)
from oracles import grad_check, source_element

DELTAS = np.geomspace(1e-1, 1e-5, 5)


def report(number, name, passed):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def trained_models(criterion8_params):
    """Three training seeds of both models at benchmark defaults, evaluated."""
    results = []
    for seed in range(3):
        params = {kind: criterion8_params[(seed, kind)]
                  for kind in ("resnet", "dcnet")}
        means = evaluate(params["resnet"], params["dcnet"],
                         EvalConfig(eval_seed=10_000 + seed)).means
        results.append({"params": params, "means": means})
    return results


def test_criterion_1_dc_invariance(trained_models):
    rows = dc_audit(trained_models[0]["params"]["dcnet"], "dcnet",
                    n=40, seed=2000)
    worst = max(abs(r["residual_model"] - r["residual_tikhonov"])
                / r["y_norm"] for r in rows)
    report(1, "DC invariance", len(rows) == 40 and worst <= 1e-10)


def test_criterion_2_projector_suite():
    # the operator and mask every model and benchmark workload runs on
    problem = Problem.benchmark()
    op = problem.op
    closed = mask_projector(problem.support)
    iterative = iterative_projector(op)
    rng = np.random.default_rng(0)
    worst_gap = worst_idem = worst_sa = worst_ann = 0.0
    for _ in range(50):
        z = rng.standard_normal((64, 64))
        w = rng.standard_normal((64, 64))
        p = closed(z)
        worst_gap = max(worst_gap, np.linalg.norm(iterative(z) - p)
                        / np.linalg.norm(z))
        worst_idem = max(worst_idem, np.max(np.abs(closed(p) - p)))
        worst_sa = max(worst_sa, abs(np.vdot(p, w) - np.vdot(z, closed(w))))
        worst_ann = max(worst_ann, np.max(np.abs(op.apply(p))))
    report(2, "projector suite",
           worst_gap <= 1e-6 and worst_idem <= 1e-10
           and worst_sa <= 1e-10 and worst_ann <= 1e-10)


def test_criterion_3_moore_penrose():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 33))
        r = int(rng.integers(1, n))
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        svd = dense_svd(a)
        pinv = np.column_stack([
            pseudo_inverse_apply(svd, e) for e in np.eye(n)])
        worst = max(worst,
                    np.max(np.abs(a @ pinv @ a - a)),
                    np.max(np.abs(pinv @ a @ pinv - pinv)),
                    np.max(np.abs(a @ pinv - (a @ pinv).T)),
                    np.max(np.abs(pinv @ a - (pinv @ a).T)))
    report(3, "Moore-Penrose identities", worst <= 1e-9)


def test_criterion_4_filter_qualification():
    lams = np.linspace(1e-3, 1.0, 1000)
    ok = True
    for kind in FILTER_KINDS:
        const = FILTER_QUALIFICATION[kind]
        for alpha in np.geomspace(1e-4, 0.5, 10):
            if kind == "landweber":
                alpha = 1.0 / round(1.0 / alpha)
            g = filter_value(FilterSpec(kind, alpha), lams)
            resid = np.abs(1.0 - lams * g)
            for mu in (0.5, 1.0):
                if mu > const["mu_max"]:
                    continue
                ok &= bool(np.max(lams**mu * resid)
                           <= const["c1"] * alpha**mu * (1 + 1e-12))
            ok &= bool(np.max(np.abs(g))
                       <= const["c2"] / alpha * (1 + 1e-12))
    report(4, "filter qualification R1-R2", ok)


@pytest.fixture(scope="module")
def classical_rates():
    _, svd = make_rate_operator(seed=0)
    out = {}
    for mu, kind in ((0.5, "tikhonov"), (1.0, "tikhonov"), (1.0, "tsvd")):
        out[(mu, kind)] = convergence_study(
            svd, kind, SourceCondition(mu=mu, rho=1.0), DELTAS,
            trials=10, seed=0)
    return out


def test_criterion_5_classical_rates(classical_rates):
    # Error slopes: theory 2 mu / (2 mu + 1).  The residual-slope check at
    # mu = 1 uses TSVD: the Tikhonov residual saturates at order delta^(2/3)
    # because its qualification caps mu + 1/2 at 1.
    half = classical_rates[(0.5, "tikhonov")]
    one_tik = classical_rates[(1.0, "tikhonov")]
    one_tsvd = classical_rates[(1.0, "tsvd")]
    ok = (abs(half.error_slope - 0.5) <= 0.1
          and abs(one_tik.error_slope - 2.0 / 3.0) <= 0.1
          and abs(half.residual_slope - 1.0) <= 0.2
          and abs(one_tsvd.residual_slope - 1.0) <= 0.2)
    report(5, "classical convergence rates", ok)


def test_criterion_6_nsn_rate_transfer(classical_rates):
    _, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=0)
    proj = svd_projector(svd)
    # a network whose first-layer ReLUs fire on source elements, so that
    # its correction varies with the input (the seed-2 one fires none)
    params = nn.init_params(nn.Architecture(layers=2, width=2),
                            seed=3).scaled(0.25)
    x = source_element(svd, SourceCondition(mu=0.5, rho=1.0), seed=0)
    ok = bool(np.ptp(nn.forward(params, x)[0] - x) > 1e-6)
    for mu, kind in ((0.5, "tikhonov"), (1.0, "tikhonov")):
        learned, lip = nsn_convergence_study(
            params, proj, svd, kind, SourceCondition(mu=mu, rho=1.0),
            DELTAS, trials=10, seed=0)
        ok &= abs(learned.error_slope
                  - classical_rates[(mu, kind)].error_slope) <= 0.1
        ok &= all(e["error"] <= lip * e["classical_error"] * 1.05
                  for e in learned.entries)
    report(6, "learned-regularization rate transfer", ok)


def test_criterion_7_gradient_correctness():
    err = grad_check(nn.Architecture(layers=5, width=6), seed=0,
                     shape=(8, 8))
    report(7, "gradient correctness", err <= 1e-5)


def test_criterion_8_table_orderings(trained_models):
    votes = {"resnet_best_id": 0, "dcnet_best_ood": 0, "dcnet_beats_tik": 0}
    for r in trained_models:
        m = r["means"]
        id_psnr = {k: m[k]["ID"]["psnr"] for k in m}
        ood_psnr = {k: m[k]["OOD"]["psnr"] for k in m}
        votes["resnet_best_id"] += max(id_psnr, key=id_psnr.get) == "resnet"
        votes["dcnet_best_ood"] += max(ood_psnr, key=ood_psnr.get) == "dcnet"
        votes["dcnet_beats_tik"] += ood_psnr["dcnet"] > ood_psnr["tikhonov"]
    report(8, "table orderings over 3 seeds",
           all(v >= 2 for v in votes.values()))


def test_criterion_9_metric_anchors():
    x = np.zeros((32, 32))
    y = np.full((32, 32), 0.1)
    z = np.random.default_rng(2).random((32, 32))
    report(9, "metric unit anchors",
           psnr(x, y) == pytest.approx(20.0, abs=1e-12) and ssim(z, z) == 1.0)
