"""Experiment harness: the stripe problem, training loop, evaluation
report, data-consistency audit and the convergence-rate studies."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from nsrecon import experiments, nn
from nsrecon.data import write_csv
from nsrecon.experiments import (ConvergenceReport, EvalConfig, Problem,
                                 TrainConfig, convergence_study, dc_audit,
                                 evaluate, fit_loglog_slope,
                                 make_rate_operator, nsn_convergence_study,
                                 save_json_summary, train)
from nsrecon.linops import (adjoint_check, dense_svd, make_cumsum,
                            operator_svd)
from nsrecon.nullspace import iterative_projector, svd_projector
from nsrecon.regularize import (FILTER_KINDS, FilterSpec, SourceCondition,
                                spectral_reconstruct)
from oracles import (forward_reference, rate_study_reference, source_element,
                     tikhonov_matrix_reference)

DELTAS = np.geomspace(1e-1, 1e-5, 5)


@pytest.fixture(scope="module")
def small_problem():
    return Problem.benchmark(image_size=32)


@pytest.fixture(scope="module")
def small_svd(small_problem):
    return operator_svd(small_problem.op)


@pytest.fixture(scope="module")
def small_trained(small_problem):
    out = {}
    for kind in ("resnet", "dcnet"):
        cfg = TrainConfig(epochs=30, model_kind=kind, data_seed=0,
                          init_seed=1)
        out[kind] = train(cfg, small_problem)
    return out


class TestProblem:
    def test_projector_zeroes_observed_columns(self):
        problem = Problem.benchmark()
        observed = np.ones(64, dtype=bool)
        observed[[0, 1, 4, 5, 8, 9, 12, 13]] = False  # the removed stripes
        np.testing.assert_array_equal(problem.support[0] == 1.0, observed)
        z = np.random.default_rng(0).standard_normal((64, 64))
        p = problem.projector(z)
        assert np.all(p[:, observed] == 0.0)
        np.testing.assert_array_equal(p[:, ~observed], z[:, ~observed])

    def test_reconstruct_matches_tikhonov(self, small_problem, small_svd):
        y = small_problem.dataset(1, "OOD", 0, 0.05)[0].y
        ref = spectral_reconstruct(small_svd, y,
                                   FilterSpec("tikhonov", small_problem.alpha))
        gap = np.linalg.norm(small_problem.reconstruct(y) - ref)
        assert gap <= 1e-12 * np.linalg.norm(ref)

    def test_reconstruct_matches_dense_form_at_every_size(self):
        rng = np.random.default_rng(3)
        for size, spacing in [(14, 1.0), (20, 0.3), (33, 1 / 8), (64, 2.5)]:
            problem = Problem(size, spacing, 0.01)
            y = rng.standard_normal((size, size))
            np.testing.assert_array_equal(
                problem.reconstruct(y),
                tikhonov_matrix_reference(problem) @ (problem.support * y))
        # past the dense forms' 1024-pixel limit: x solves the normal
        # equations (A*A + alpha I) x = A* y of the matrix-free operator
        problem = Problem.benchmark(1025)
        y = rng.standard_normal((1025, 1025))
        x, op = problem.reconstruct(y), problem.op
        rhs = op.adjoint(y)
        gap = np.linalg.norm(op.adjoint(op.apply(x)) + problem.alpha * x
                             - rhs)
        assert gap <= 1e-10 * np.linalg.norm(rhs)

    def test_removed_columns_are_zero(self, small_problem):
        y = np.random.default_rng(5).standard_normal((32, 32))
        x = small_problem.reconstruct(y)
        removed = small_problem.support[0] == 0.0
        assert np.all(x[:, removed] == 0.0)
        assert np.all(x[:, ~removed] != 0.0)

    def test_replace_reconstructs_with_its_own_alpha(self, small_problem,
                                                     small_svd):
        y = small_problem.dataset(1, "ID", 0, 0.05)[0].y
        small_problem.reconstruct(y)  # builds the cached matrix
        other = dataclasses.replace(small_problem, alpha=0.5)
        ref = spectral_reconstruct(small_svd, y, FilterSpec("tikhonov", 0.5))
        gap = np.linalg.norm(other.reconstruct(y) - ref)
        assert gap <= 1e-12 * np.linalg.norm(ref)
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_problem.alpha = 0.5

    def test_replace_spacing_rederives_the_operator(self):
        # op, support and the solve all follow the replaced grid step
        q = dataclasses.replace(Problem.benchmark(32), spacing=0.5)
        y = q.dataset(1, "ID", 0, 0.05)[0].y
        ref = spectral_reconstruct(operator_svd(q.op), y,
                                   FilterSpec("tikhonov", q.alpha))
        gap = np.linalg.norm(q.reconstruct(y) - ref)
        assert gap <= 1e-12 * np.linalg.norm(ref)

    def test_support_is_read_only(self):
        problem = Problem.benchmark(16)
        with pytest.raises(ValueError):
            problem.support[0, 2] = 0.0

    @pytest.mark.parametrize(
        "bad", [{"alpha": 0.0}, {"alpha": -0.01}, {"spacing": 0.0},
                {"spacing": -1.0}, {"image_size": 8}],
        ids=["0.0", "-0.01", "spacing0.0", "spacing-1.0", "image_size8"])
    def test_alpha_validated(self, bad):
        # rejected at construction, before any derived part is built
        with pytest.raises(ValueError):
            Problem.benchmark(**{"image_size": 16, **bad})

    @pytest.mark.parametrize("field", ["spacing", "alpha"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_rejected_naming_it(self, field, bad):
        # an infinite alpha would make reconstruct return NaN
        with pytest.raises(ValueError,
                           match=f"^{field} must be finite and positive"):
            Problem(**{"image_size": 16, "spacing": 0.125, "alpha": 0.01,
                       field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, small_problem, bad):
        y = small_problem.dataset(1, "ID", 0, 0.05)[0].y
        y[3, 5] = bad
        with pytest.raises(ValueError):
            small_problem.reconstruct(y)

    @pytest.mark.parametrize("shape", [(32,), (32, 1), (16, 32),
                                       (3, 16, 32), (2, 3, 32, 32)])
    def test_wrong_data_shape_rejected(self, small_problem, shape):
        with pytest.raises(ValueError, match=r"expected shape \(32, 32\)"):
            small_problem.reconstruct(np.ones(shape))

    def test_reconstructs_a_stack_as_single_images(self, small_problem):
        y = np.random.default_rng(6).standard_normal((5, 32, 32))
        stack = small_problem.reconstruct(y)
        assert stack.shape == y.shape
        for one, x in zip(y, stack):
            assert small_problem.reconstruct(one).tobytes() == x.tobytes()

    def test_model_projector(self, small_problem):
        assert small_problem.model_projector("dcnet") is \
            small_problem.projector
        assert small_problem.model_projector("resnet") is None
        with pytest.raises(ValueError, match="model_kind"):
            small_problem.model_projector("unet")

    @pytest.mark.parametrize("kind", ["ID", "OOD"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_later_draws_are_the_dataset_elements(self, small_problem, kind,
                                                  m):
        # gen-data draws sample i alone and train draws blocks, as
        # dataset(m, kind, seed + i): elements i .. i + m - 1 of
        # dataset(n, kind, seed), bit for bit
        whole = small_problem.dataset(7, kind, 7, 0.05)
        for i in range(0, len(whole), m):
            part = small_problem.dataset(min(m, len(whole) - i), kind, 7 + i,
                                         0.05)
            assert len(part) == len(whole[i:i + m])
            for got, want in zip(part, whole[i:i + m]):
                assert np.array_equal(got.x, want.x)
                assert np.array_equal(got.y, want.y)
                assert (got.kind, got.seed, got.position, got.delta) == \
                    (want.kind, want.seed, want.position, want.delta)

    def test_dataset_uses_problem_grid(self, small_problem):
        samples = small_problem.dataset(2, "OOD", 3, 0.05)
        assert [s.seed for s in samples] == [3, 4]
        for s in samples:
            assert s.x.shape == s.y.shape == (32, 32)
            assert s.kind == "OOD"


STRIPES = [0, 1, 4, 5, 8, 9, 12, 13]  # array columns {4k, 4k+1}, k < 4


class TestStripeMask:
    """The support of `Problem`: ones, with the four stripes removed."""

    def test_single_stripe_columns(self):
        # stripe k is the one-based column pair {4k+1, 4k+2}
        support = Problem(16, 1.0, 0.01).support
        for k in range(4):
            assert np.all(support[:, 4 * k:4 * k + 2] == 0.0)
            assert np.all(support[:, 4 * k + 2:4 * k + 4] == 1.0)

    def test_benchmark_eight_columns(self):
        support = Problem.benchmark().support
        assert support.shape == (64, 64)
        assert np.all((support == 0.0) | (support == 1.0))
        removed = np.flatnonzero(support[0] == 0.0)
        assert removed.tolist() == STRIPES
        assert np.all(support == support[0])

    def test_complement(self):
        kept = np.flatnonzero(Problem.benchmark().support[0])
        assert len(kept) == 56
        assert not set(kept) & set(STRIPES)

    def test_validation(self):
        # 14 columns are the narrowest that hold the four stripes
        with pytest.raises(ValueError, match="stripes"):
            Problem(13, 1.0, 0.01)
        assert Problem(14, 1.0, 0.01).support[:, 13].sum() == 0.0
        with pytest.raises(ValueError):
            Problem(14, 1.0, 0.01).support[0, 0] = 1.0


class TestCompose:
    """The stripe operator is the column mask after the integration."""

    def test_mask_commutes_with_cumsum(self):
        k = make_cumsum(16, 16, spacing=0.25)
        x = np.random.default_rng(3).standard_normal((16, 16))
        problem = Problem(16, 0.25, 0.01)
        np.testing.assert_array_equal(problem.op.apply(x),
                                      problem.support * k.apply(x))

    def test_adjoint_defect(self):
        assert adjoint_check(Problem(16, 1.0, 0.01).op) < 1e-12


class TestTrain:
    def test_zero_epochs_returns_init(self):
        cfg = TrainConfig(epochs=0, data_seed=0, init_seed=5)
        params, log = train(cfg)
        init = nn.init_params(cfg.arch, 5)
        assert log == []
        np.testing.assert_array_equal(params.flat, init.flat)

    def test_deterministic(self, small_problem):
        cfg = TrainConfig(epochs=5, data_seed=3, init_seed=4)
        p1, l1 = train(cfg, small_problem)
        p2, l2 = train(cfg, small_problem)
        assert l1 == l2
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_loss_logged_per_epoch(self, small_trained):
        for kind in ("resnet", "dcnet"):
            _, log = small_trained[kind]
            assert len(log) == 30
            assert all(np.isfinite(v) for v in log)

    def test_banded_dcnet_matches_full_width(self, small_problem,
                                             monkeypatch):
        # on the 32 x 32 grid the projector keeps an arc of 14 columns and
        # 14 + 2 * 5 <= 32, so the dcnet trains on a band; the same
        # projector as a plain callable (no `columns`) runs on the whole
        # circle
        proj = small_problem.projector
        assert len(nn._band(proj, 32, 5)[0]) == 14 + 2 * 5
        cfg = TrainConfig(epochs=20, model_kind="dcnet")
        # every GEMM here has a multiple of 32 columns, so no BLAS
        # remainder kernel runs and the band's forward is bit for bit
        params = nn.init_params(cfg.arch, 3)
        x = np.random.default_rng(3).standard_normal((4, 32, 32))
        out = nn.forward(params, x, proj)[0]
        assert np.array_equal(out, nn.forward(params, x, lambda z: proj(z))[0])
        for got, image in zip(out, x):
            want = forward_reference(params, image, proj)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        params, log = train(cfg, small_problem)
        monkeypatch.setattr(Problem, "model_projector",
                            lambda self, kind: lambda z: proj(z))
        ref_params, ref_log = train(cfg, small_problem)
        for got, want in zip(params.kernels + params.biases,
                             ref_params.kernels + ref_params.biases):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_allclose(log, ref_log, rtol=1e-12, atol=0)

    def test_model_kind_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(model_kind="unet")

    @pytest.mark.parametrize("bad", [{"weight_decay": -0.5},
                                     {"sigma": -0.01}, {"sigma": np.nan},
                                     {"sigma": np.inf}, {"lr": np.inf},
                                     {"weight_decay": np.inf}])
    def test_hyperparameters_validated(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("kind", ["resnet", "dcnet"])
    def test_divergence_stops_training(self, kind):
        # the first Adam step at lr = 1e100 overflows the parameters, so
        # the loss of epoch 1 is nan; numpy's overflow warnings are beside
        # the point
        cfg = TrainConfig(lr=1e100, model_kind=kind, epochs=5)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="diverged at epoch 1"):
                train(cfg, Problem(32, 0.25, 0.01))

    def test_negative_epochs_named(self):
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("field", ["data_seed", "init_seed"])
    def test_negative_seed_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
            TrainConfig(**{field: -1})

    def test_memory_is_constant_in_epochs(self, small_problem, traced_peak):
        # pairs are drawn a block at a time; drawing every epoch's pair up
        # front grew the peak by 16 KB an epoch (x and y at 32 x 32)
        def peak(epochs):
            return traced_peak(train, TrainConfig(epochs=epochs,
                                                  model_kind="dcnet"),
                               small_problem)

        peak(1)  # first-call set-up: the projector and the dcnet's band
        assert peak(200) - peak(20) < 100_000

    def test_loss_decreases_with_benchmarks(self):
        for kind in ("resnet", "dcnet"):
            wins = 0
            for seed in range(3):
                cfg = TrainConfig(model_kind=kind, data_seed=seed,
                                  init_seed=seed + 1)
                _, log = train(cfg)
                wins += log[-1] < log[0]
            assert wins >= 2


class TestEvaluate:
    @pytest.mark.parametrize("bad", [{"n_per_kind": 0}, {"sigma": -0.01},
                                     {"sigma": np.nan}, {"sigma": np.inf}])
    def test_config_validated(self, bad):
        with pytest.raises(ValueError):
            EvalConfig(**bad)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="^eval_seed must be >= 0, got -1$"):
            EvalConfig(eval_seed=-1)

    def test_report_shape(self, small_problem, small_trained):
        cfg = EvalConfig(n_per_kind=3)
        report = evaluate(small_trained["resnet"][0],
                          small_trained["dcnet"][0], cfg, small_problem)
        assert len(report.rows) == 3 * 2 * 3  # samples x kinds x methods
        for method in ("tikhonov", "resnet", "dcnet"):
            for kind in ("ID", "OOD"):
                assert set(report.means[method][kind]) == \
                    {"psnr", "ssim", "mse", "residual"}

    def test_zero_correction_matches_tikhonov(self, small_problem):
        zero = nn.init_params(nn.Architecture(), 0).scaled(0.0)
        cfg = EvalConfig(n_per_kind=2)
        report = evaluate(zero, zero, cfg, small_problem)
        by_key = {}
        for r in report.rows:
            by_key.setdefault((r["kind"], r["index"]), []).append(r)
        for rows in by_key.values():
            base = rows[0]
            for r in rows[1:]:
                assert r["psnr"] == base["psnr"]
                assert r["mse"] == base["mse"]

    def test_csv_export(self, small_problem, small_trained, tmp_path):
        cfg = EvalConfig(n_per_kind=2)
        report = evaluate(small_trained["resnet"][0],
                          small_trained["dcnet"][0], cfg, small_problem)
        path = tmp_path / "eval.csv"
        write_csv(path, report.rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,index,method,psnr,ssim,mse,residual"
        assert len(lines) == 1 + len(report.rows)

    @pytest.mark.parametrize("which", ["resnet", "dcnet"])
    def test_non_finite_params_rejected(self, small_problem, small_trained,
                                        which):
        params = {k: small_trained[k][0] for k in ("resnet", "dcnet")}
        params[which] = params[which].copy()
        params[which].biases[-1][0] = np.nan  # through a view into `flat`
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(params["resnet"], params["dcnet"],
                     EvalConfig(n_per_kind=1), small_problem)


class TestDcAudit:
    def test_dcnet_preserves_residual(self, small_problem, small_trained):
        cfg = EvalConfig()
        rows = dc_audit(small_trained["dcnet"][0], "dcnet", 8, 0, cfg,
                        small_problem)
        assert len(rows) == 8
        for r in rows:
            gap = abs(r["residual_model"] - r["residual_tikhonov"])
            assert gap / r["y_norm"] <= 1e-10

    def test_resnet_breaks_residual_somewhere(self, small_problem,
                                              small_trained):
        cfg = EvalConfig()
        res_rows = dc_audit(small_trained["resnet"][0], "resnet", 8, 0, cfg,
                            small_problem)
        dc_rows = dc_audit(small_trained["dcnet"][0], "dcnet", 8, 0, cfg,
                           small_problem)
        ood = [(a, b) for a, b in zip(res_rows, dc_rows) if a["kind"] == "OOD"]
        assert any(a["residual_model"] > b["residual_model"]
                   for a, b in ood)

    def test_non_finite_params_rejected(self, small_problem, small_trained):
        params = small_trained["dcnet"][0].copy()
        params.kernels[0].flat[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            dc_audit(params, "dcnet", 2, 0, EvalConfig(), small_problem)

    def test_kind_validated(self, small_problem, small_trained):
        with pytest.raises(ValueError):
            dc_audit(small_trained["dcnet"][0], "unet", 4, 0,
                     EvalConfig(), small_problem)
        with pytest.raises(ValueError):
            dc_audit(small_trained["dcnet"][0], "dcnet", 0, 0,
                     EvalConfig(), small_problem)

    def test_negative_seed_named(self, small_problem, small_trained):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            dc_audit(small_trained["dcnet"][0], "dcnet", 2, -1,
                     EvalConfig(), small_problem)

    @pytest.mark.parametrize("model_kind", ["resnet", "dcnet"])
    def test_matches_evaluate_rows(self, small_problem, small_trained,
                                   model_kind):
        # 2m audited samples are evaluate's m ID and m OOD ones, bit for bit
        m, seed = 3, 123
        cfg = EvalConfig(n_per_kind=m, eval_seed=seed)
        report = evaluate(small_trained["resnet"][0],
                          small_trained["dcnet"][0], cfg, small_problem)
        rows = dc_audit(small_trained[model_kind][0], model_kind, 2 * m,
                        seed, cfg, small_problem)
        for method, key in ((model_kind, "residual_model"),
                            ("tikhonov", "residual_tikhonov")):
            evaluated = [r for r in report.rows if r["method"] == method]
            assert [r["kind"] for r in rows] == \
                [r["kind"] for r in evaluated]
            assert [r[key] for r in rows] == \
                [r["residual"] for r in evaluated]


class TestRateMachinery:
    def test_fit_loglog_slope_exact_power_law(self):
        xs = np.geomspace(1e-4, 1e-1, 6)
        slope, hw = fit_loglog_slope(xs, 3.0 * xs**0.75)
        assert slope == pytest.approx(0.75, abs=1e-12)
        assert hw == pytest.approx(0.0, abs=1e-9)

    def test_fit_loglog_slope_needs_two_points(self):
        for xs in ([], [0.1]):
            with pytest.raises(ValueError, match="2 points"):
                fit_loglog_slope(xs, xs)
        # two points fit exactly but leave no residual to size the width
        slope, hw = fit_loglog_slope([0.1, 0.01], [0.2, 0.05])
        assert slope == pytest.approx(np.log10(4.0))
        assert np.isnan(hw)

    def test_half_width_is_the_t_quantile_times_the_standard_error(self):
        # t at n - 2 degrees of freedom; 1.96 was 1.62x too narrow at 3
        rng = np.random.default_rng(0)
        dofs = np.arange(1, 1001)
        ratios = []
        for dof in dofs:
            lx = rng.standard_normal(dof + 2)
            ly = 0.5 * lx + rng.standard_normal(dof + 2)
            slope, hw = fit_loglog_slope(np.exp(lx), np.exp(ly))
            dx = lx - lx.mean()
            resid = ly - ly.mean() - slope * dx
            ratios.append(hw / np.sqrt(resid @ resid / dof / (dx @ dx)))
        np.testing.assert_allclose(ratios, stats.t.ppf(0.975, dofs),
                                   rtol=1e-3)

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]),
        ([0.1, np.nan, 0.01], [0.1, 0.2, 0.3]),
        ([0.1, 0.0, 0.01], [0.1, 0.2, 0.3]),
        ([0.1, -0.1, 0.01], [0.1, 0.2, 0.3]),
        ([0.1, np.inf, 0.01], [0.1, 0.2, 0.3]),
        ([0.1, 0.05, 0.01], [0.1, 0.0, 0.3]),
        ([0.1, 0.05, 0.01], [0.1, np.nan, 0.3])])
    def test_fit_loglog_slope_rejects_bad_points(self, xs, ys):
        with pytest.raises(ValueError):
            fit_loglog_slope(xs, ys)

    @pytest.mark.parametrize("xs, ys, match", [
        ([1.0, 2.0, 3.0], [1.0, 2.0], "y must hold one point per x"),
        ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], "y must hold one point per x"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "x must be 1-D"),
        (2.0, 2.0, "x must be 1-D")],
        ids=["short-y", "2d-y", "2d-x", "scalar-x"])
    def test_fit_loglog_slope_names_the_bad_argument(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            fit_loglog_slope(xs, ys)

    def test_make_rate_operator_spectrum(self):
        op, svd = make_rate_operator(shape=(8, 8), s_min=1e-3, kernel_dim=10)
        assert svd.s[0] == pytest.approx(1.0)
        assert np.sum(svd.s == 0.0) == 10
        x = np.random.default_rng(0).standard_normal((8, 8))
        np.testing.assert_allclose(op.apply(x).ravel(),
                                   svd.matrix() @ x.ravel(), atol=1e-12)

    def test_kernel_dim_validated(self):
        with pytest.raises(ValueError):
            make_rate_operator(shape=(4, 4), kernel_dim=16)


def forbid_draws(monkeypatch):
    """Make any random generator the rate study builds fail the test."""
    def no_draw(*args, **kwargs):
        raise AssertionError("built a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)


class TestClassicalRates:
    def test_mu_half_tikhonov(self):
        _, svd = make_rate_operator(seed=0)
        report = convergence_study(svd, "tikhonov",
                                   SourceCondition(mu=0.5, rho=1.0),
                                   DELTAS, trials=10, seed=0)
        assert 0.4 <= report.error_slope <= 0.6      # theory 1/2
        assert 0.8 <= report.residual_slope <= 1.2   # theory 1

    def test_mu_one_tikhonov_error(self):
        _, svd = make_rate_operator(seed=0)
        report = convergence_study(svd, "tikhonov",
                                   SourceCondition(mu=1.0, rho=1.0),
                                   DELTAS, trials=10, seed=0)
        assert 0.57 <= report.error_slope <= 0.77    # theory 2/3

    def test_mu_one_tsvd(self):
        _, svd = make_rate_operator(seed=0)
        report = convergence_study(svd, "tsvd",
                                   SourceCondition(mu=1.0, rho=1.0),
                                   DELTAS, trials=10, seed=0)
        assert 0.57 <= report.error_slope <= 0.77
        assert 0.8 <= report.residual_slope <= 1.2

    def test_error_decreases_with_delta(self):
        _, svd = make_rate_operator(seed=0)
        report = convergence_study(svd, "tikhonov",
                                   SourceCondition(mu=0.5, rho=1.0),
                                   DELTAS, trials=10, seed=0)
        errs = [e["error"] for e in report.entries]  # deltas descending
        for large, small in zip(errs, errs[1:]):
            assert small <= large * 1.5

    def test_degenerate_study_rejected(self):
        _, svd = make_rate_operator(shape=(4, 4), seed=1)
        src = SourceCondition(mu=0.5, rho=1.0)
        with pytest.raises(ValueError, match="trials"):
            convergence_study(svd, "tikhonov", src, DELTAS, trials=0)
        for deltas in (DELTAS[:0], DELTAS[:1]):
            with pytest.raises(ValueError, match="2 points"):
                convergence_study(svd, "tikhonov", src, deltas, trials=2)

    @pytest.mark.parametrize("deltas", [
        [1e-1, np.nan, 1e-3], [1e-1, np.inf, 1e-3], [1e-1, -1e-2, 1e-3],
        [1e-1, 0.0, 1e-3], [1e-1, 1e-1, 1e-1], [[1e-1, 1e-2], [1e-3, 1e-4]]])
    def test_bad_deltas_rejected_before_any_draw(self, deltas, capfd,
                                                 monkeypatch):
        _, svd = make_rate_operator(shape=(4, 4), seed=1)
        forbid_draws(monkeypatch)
        src = SourceCondition(mu=0.5, rho=1.0)
        with pytest.raises(ValueError, match="delta"):
            convergence_study(svd, "tikhonov", src, deltas, trials=2)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("c, kind, match", [
        (np.nan, "tikhonov", "c must"), (0.0, "tikhonov", "c must"),
        (-1.0, "tikhonov", "c must"), (np.inf, "tikhonov", "c must"),
        (1.0, "bogus", "bogus"), (1.0, "tikhonov", "singular value")])
    def test_bad_study_rejected_before_any_draw(self, c, kind, match,
                                                monkeypatch):
        if match == "singular value":
            svd = dense_svd(np.zeros((3, 3)))
        else:
            _, svd = make_rate_operator(shape=(4, 4), seed=1)
        forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match=match):
            convergence_study(svd, kind, SourceCondition(mu=0.5, rho=1.0),
                              DELTAS, trials=2, c=c)

    @pytest.mark.parametrize("deltas, c", [([1e200, 1e100], 1.0),
                                           ([10.0, 1.0], 1e308)],
                             ids=["power", "product"])
    def test_overflowing_alpha_rejected_before_any_draw(self, deltas, c,
                                                        monkeypatch):
        # at mu = 0, alpha = c delta^2 overflows to inf
        _, svd = make_rate_operator(shape=(4, 4), seed=1)
        forbid_draws(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="alpha must be positive and finite"):
            convergence_study(svd, "tikhonov",
                              SourceCondition(mu=0.0, rho=1.0), deltas,
                              trials=2, c=c)

    @pytest.mark.parametrize("trials", [2.5, 3.0, "3", None])
    def test_non_integer_trials_rejected_before_any_draw(self, trials,
                                                         monkeypatch):
        _, svd = make_rate_operator(shape=(4, 4), seed=1)
        forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match="trials must be an integer"):
            convergence_study(svd, "tikhonov",
                              SourceCondition(mu=0.5, rho=1.0), DELTAS,
                              trials=trials)

    def test_numpy_integer_trials_accepted(self):
        _, svd = make_rate_operator(shape=(4, 4), seed=1)
        src = SourceCondition(mu=0.5, rho=1.0)
        assert (convergence_study(svd, "tikhonov", src, DELTAS,
                                  trials=np.int64(3))
                == convergence_study(svd, "tikhonov", src, DELTAS, trials=3))

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("n_deltas, trials", [(2, 1), (5, 4), (5, 5)])
    def test_report_fits_its_own_entries(self, kind, n_deltas, trials):
        # the study's shared log-delta fits are fit_loglog_slope's, bit for
        # bit (two noise levels leave no half-width: NaN on both sides)
        _, svd = make_rate_operator(seed=2)
        report = convergence_study(svd, kind, SourceCondition(mu=1.0, rho=1.0),
                                   DELTAS[:n_deltas], trials, seed=4)
        deltas = [e["delta"] for e in report.entries]
        for key, slope, hw in (
                ("error", report.error_slope, report.error_slope_hw),
                ("residual", report.residual_slope, report.residual_slope_hw)):
            np.testing.assert_array_equal(
                (slope, hw),
                fit_loglog_slope(deltas, [e[key] for e in report.entries]))

    def test_report_csv(self, tmp_path):
        _, svd = make_rate_operator(shape=(8, 8), seed=1)
        report = convergence_study(svd, "tikhonov",
                                   SourceCondition(mu=0.5, rho=1.0),
                                   DELTAS[:3], trials=3, seed=1)
        path = tmp_path / "rates.csv"
        write_csv(path, report.entries)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delta,alpha,error,residual"
        assert len(lines) == 4


@pytest.fixture(scope="module")
def kernel_operator():
    op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=0)
    return op, svd, svd_projector(svd)


class TestNsnRates:
    def test_zero_correction_reproduces_classical(self, kernel_operator):
        op, svd, proj = kernel_operator
        src = SourceCondition(mu=0.5, rho=1.0)
        zero = nn.init_params(nn.Architecture(layers=2, width=2),
                              0).scaled(0.0)
        classical = convergence_study(svd, "tikhonov", src, DELTAS[:3],
                                      trials=3, seed=0)
        learned, lip = nsn_convergence_study(zero, proj, svd, "tikhonov",
                                             src, DELTAS[:3], trials=3,
                                             seed=0)
        assert lip == pytest.approx(1.0)
        for a, b in zip(classical.entries, learned.entries):
            assert a["error"] == pytest.approx(b["error"], rel=1e-8)

    @pytest.mark.parametrize("net_seed, fires", [(2, False), (3, True)],
                             ids=["net2", "net3"])
    def test_small_net_keeps_rate_and_bound(self, kernel_operator, net_seed,
                                            fires):
        # the seed-2 network fires no ReLU on source elements, so its
        # correction U(x) is one constant image; the seed-3 network's
        # (criterion 6's) varies across pixels
        op, svd, proj = kernel_operator
        src = SourceCondition(mu=0.5, rho=1.0)
        params = nn.init_params(nn.Architecture(layers=2, width=2),
                                seed=net_seed).scaled(0.25)
        x = source_element(svd, src, seed=0).reshape(svd.in_shape)
        correction = nn.forward(params, x)[0] - x
        assert (np.ptp(correction) > 1e-6) == fires
        report, lip = nsn_convergence_study(params, proj, svd, "tikhonov",
                                            src, DELTAS, trials=10, seed=0)
        assert 0.4 <= report.error_slope <= 0.6
        for e in report.entries:
            assert e["error"] <= lip * e["classical_error"] * 1.05

    @pytest.mark.parametrize("net_seed, trials",
                             [(3, 3), (4, 4), (3, 10), (4, 10)])
    def test_iterative_projector_runs_the_study(self, kernel_operator,
                                                net_seed, trials):
        # at 3 and 4 trials these stacks close the projector's basis at the
        # rank, 224, where the solver's residual estimate reads 2.6e-14 and
        # 3.0e-14 while its answer passes the 1e-14 tolerance; at 10 trials
        # the one 100-column solve's answers miss it (1.8e-13 and 1.7e-13)
        # until one Galerkin correction in the solve's own directions.  The
        # study equals the SVD projector's
        op, svd, proj = kernel_operator
        params = nn.init_params(nn.Architecture(layers=2, width=2),
                                net_seed).scaled(0.25)
        args = ("tikhonov", SourceCondition(0.5, 1.0), DELTAS, trials)
        got = nsn_convergence_study(params, iterative_projector(op), svd,
                                    *args)[0]
        want = nsn_convergence_study(params, proj, svd, *args)[0]
        for a, b in zip(got.entries, want.entries):
            assert a["error"] == pytest.approx(b["error"], rel=1e-9)

    @pytest.mark.parametrize("bad", [
        {}, {"trials": 0}, {"deltas": [1e-2, 1e-2]}, {"c": 0.0},
        {"filter_kind": "ridge"}], ids=["valid", "trials", "delta", "c",
                                        "kind"])
    def test_bad_argument_fails_before_the_bound(self, kernel_operator,
                                                 monkeypatch, bad):
        # the valid call shows that the patch sees the bound
        _, svd, proj = kernel_operator
        calls = []
        monkeypatch.setattr(nn, "lipschitz_bound",
                            lambda *args: calls.append(args) or 1.0)
        params = nn.init_params(nn.Architecture(layers=2, width=2), 0)
        args = {"filter_kind": "tikhonov", "src": SourceCondition(0.5, 1.0),
                "deltas": DELTAS[:3], "trials": 2, "c": 1.0, **bad}
        if not bad:
            assert nsn_convergence_study(params, proj, svd, **args)[1] == 1.0
            assert len(calls) == 1
            return
        with pytest.raises(ValueError):
            nsn_convergence_study(params, proj, svd, **args)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bias_fails_naming_the_parameters(
            self, kernel_operator, monkeypatch, bad):
        # the bound reads only the kernels, and the network's NaN output
        # would fail only the study's fit, after the whole study
        _, svd, proj = kernel_operator
        params = nn.init_params(nn.Architecture(layers=2, width=2), 0)
        params.biases[1][0] = bad
        monkeypatch.setattr(experiments, "_rate_study", None)
        with pytest.raises(ValueError, match="non-finite network parameters"):
            nsn_convergence_study(params, proj, svd, "tikhonov",
                                  SourceCondition(0.5, 1.0), DELTAS[:3], 2)


def test_no_inference_forward_keeps_row_matrices(small_problem,
                                                 small_trained,
                                                 kernel_operator,
                                                 monkeypatch):
    # a forward keeps row matrices for backward only when it is given a
    # cache, which only train does: evaluate, dc_audit and the rate study
    # run every forward without one
    calls, forward = [], nn.forward

    def recorded(*args, **kwargs):
        out, cache = forward(*args, **kwargs)
        calls.append((args[3:], kwargs, cache["rows"]))
        return out, cache

    monkeypatch.setattr(nn, "forward", recorded)
    monkeypatch.setattr(experiments, "_network", recorded)
    resnet, dcnet = small_trained["resnet"][0], small_trained["dcnet"][0]
    evaluate(resnet, dcnet, EvalConfig(n_per_kind=1), small_problem)
    dc_audit(dcnet, "dcnet", 2, 0, problem=small_problem)
    _, svd, proj = kernel_operator
    params = nn.init_params(nn.Architecture(layers=2, width=2),
                            3).scaled(0.25)
    nsn_convergence_study(params, proj, svd, "tikhonov",
                          SourceCondition(0.5, 1.0), DELTAS[:3], trials=2)
    assert calls == [((), {}, None)] * 7


def _unit_norm(matrix):
    return matrix / np.linalg.norm(matrix, 2)


@pytest.fixture(scope="module")
def oracle_operators():
    """Thin SVDs of a wide and a tall matrix, a square one, and the rate
    operators; spectra in (0, 1] so that Landweber steps are stable."""
    rng = np.random.default_rng(7)
    return {
        "wide": dense_svd(_unit_norm(rng.standard_normal((6, 10)))),
        "tall": dense_svd(_unit_norm(rng.standard_normal((10, 6)))),
        "square": dense_svd(_unit_norm(rng.standard_normal((12, 12)))),
        "rate": make_rate_operator(seed=0)[1],
        "rate_kernel": make_rate_operator(s_min=1e-3, kernel_dim=32,
                                          seed=0)[1],
    }


def assert_same_study(block, loop):
    """Entries within 1e-12 absolute (residuals of an exact fit sit at
    rounding level, about 1e-15, so a relative check there compares noise)
    and error slopes within 1e-10."""
    assert len(block.entries) == len(loop.entries)
    for got, want in zip(block.entries, loop.entries):
        assert list(got) == list(want)
        for key in got:
            assert abs(got[key] - want[key]) <= 1e-12, key
    assert abs(block.error_slope - loop.error_slope) <= 1e-10


class TestBlockRateStudy:
    """The column-block study against the per-trial loop of the oracles."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("name", ["wide", "tall", "square", "rate",
                                      "rate_kernel"])
    def test_classical_matches_loop(self, oracle_operators, name, kind):
        svd = oracle_operators[name]
        for mu in (0.0, 0.5, 1.0, 2.0):
            src = SourceCondition(mu=mu, rho=1.5)
            for trials in (1, 10):
                assert_same_study(
                    convergence_study(svd, kind, src, DELTAS, trials,
                                      seed=3, c=0.5),
                    rate_study_reference(svd, kind, src, DELTAS, trials,
                                         3, 0.5))

    @pytest.mark.parametrize("projector, trials", [("svd", 10),
                                                   ("iterative", 1)])
    def test_nsn_matches_loop(self, kernel_operator, projector, trials):
        # The loop oracle always runs the exact SVD projector.  The block
        # study matches it to rounding with that projector, and with the
        # iterative one to the Krylov solve's documented 1e-8 relative.
        # The network's first-layer ReLUs fire on these inputs: with seed
        # 2 none does, and U(x) is one constant image for every x.
        op, svd, proj = kernel_operator
        params = nn.init_params(nn.Architecture(layers=2, width=2),
                                seed=3).scaled(0.25)
        src = SourceCondition(mu=0.5, rho=1.0)
        loop = rate_study_reference(
            svd, "tikhonov", src, DELTAS, trials, 1, 1.0,
            f=lambda img: nn.forward(params, img, proj)[0])
        if projector == "iterative":
            proj = iterative_projector(op)
        block, _ = nsn_convergence_study(params, proj, svd, "tikhonov", src,
                                         DELTAS, trials, seed=1)
        if projector == "svd":
            assert_same_study(block, loop)
            return
        for got, want in zip(block.entries, loop.entries):
            assert list(got) == list(want)
            for key in got:
                assert abs(got[key] - want[key]) <= 1e-8 * abs(want[key]), key


def test_save_json_summary(tmp_path):
    # strict JSON: a non-finite float, which RFC 8259 cannot spell, is null
    path = tmp_path / "summary.json"
    save_json_summary(path, {
        "config": TrainConfig(epochs=2),
        "value": np.float64(1.5),
        "widths": {"nan": math.nan, "inf": [math.inf, -math.inf]},
    })

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["config"]["epochs"] == 2
    assert payload["value"] == 1.5
    assert payload["widths"] == {"nan": None, "inf": [None, None]}
