"""Spectral filters, qualification constants, Tikhonov on the stripe
problem, the a-priori parameter rule and source-condition elements."""

import numpy as np
import pytest

from nsrecon.experiments import Problem, make_rate_operator
from nsrecon.linops import SolverConfig, cg_regularized_normal, dense_svd
from nsrecon.operators import dense_op, operator_svd
from nsrecon.regularize import (FILTER_KINDS, FILTER_QUALIFICATION,
                                FilterSpec, SourceCondition, filter_value,
                                param_choice, spectral_reconstruct)
from oracles import source_element, tikhonov_stack


class TestFilterValue:
    def test_tikhonov(self):
        assert filter_value(FilterSpec("tikhonov", 0.01), 1.0) == \
            pytest.approx(1.0 / 1.01)

    def test_tsvd_cutoff(self):
        spec = FilterSpec("tsvd", 0.5)
        assert filter_value(spec, 0.25) == 0.0
        assert filter_value(spec, 0.5) == pytest.approx(2.0)

    def test_landweber_geometric_sum(self):
        val = filter_value(FilterSpec("landweber", 0.1), 0.1)
        assert val == pytest.approx((1.0 - 0.9**10) / 0.1)
        assert val == pytest.approx(sum(0.9**j for j in range(10)))

    def test_landweber_at_zero(self):
        assert filter_value(FilterSpec("landweber", 0.1), 0.0) == 10.0

    def test_vectorized(self):
        lams = np.array([0.0, 0.5, 1.0])
        out = filter_value(FilterSpec("tikhonov", 1.0), lams)
        np.testing.assert_allclose(out, 1.0 / (lams + 1.0))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            filter_value(FilterSpec("tikhonov", 1.0), -0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FilterSpec("ridge", 0.1)
        for alpha in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                FilterSpec("tikhonov", alpha)


class TestQualification:
    """Grid check of the two filter conditions with documented constants:
    lam^mu |1 - lam g(lam)| <= c1 alpha^mu for mu <= mu_max, and
    |g(lam)| <= c2 / alpha, over the spectrum range (0, 1]."""

    lams = np.linspace(1e-3, 1.0, 1000)
    alphas = np.geomspace(1e-4, 0.5, 10)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_grid(self, kind):
        const = FILTER_QUALIFICATION[kind]
        for alpha in self.alphas:
            if kind == "landweber":
                alpha = 1.0 / round(1.0 / alpha)  # exact iteration counts
            spec = FilterSpec(kind, alpha)
            g = filter_value(spec, self.lams)
            residual_factor = np.abs(1.0 - self.lams * g)
            for mu in (0.5, 1.0):
                if mu > const["mu_max"]:
                    continue
                bound = const["c1"] * alpha**mu
                assert np.max(self.lams**mu * residual_factor) <= \
                    bound * (1 + 1e-12)
            assert np.max(np.abs(g)) <= const["c2"] / alpha * (1 + 1e-12)


class TestSpectralReconstruct:
    def test_small_alpha_inverts(self):
        svd = dense_svd(np.diag([2.0, 1.0]))
        x = spectral_reconstruct(svd, np.array([2.0, 1.0]),
                                 FilterSpec("tikhonov", 1e-12))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_tsvd_cuts_everything(self):
        svd = dense_svd(np.diag([2.0, 1.0]))
        x = spectral_reconstruct(svd, np.array([2.0, 1.0]),
                                 FilterSpec("tsvd", 5.0))
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_matches_cg_tikhonov(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((16, 16))
        op = dense_op(mat, (4, 4), (4, 4))
        y = rng.standard_normal((4, 4))
        alpha = 0.05
        via_svd = spectral_reconstruct(operator_svd(op), y,
                                       FilterSpec("tikhonov", alpha))
        # CG on the normal equations of [A; sqrt(alpha) I]
        via_cg = cg_regularized_normal(tikhonov_stack(op, alpha),
                                       op.adjoint(y),
                                       SolverConfig(tol=1e-13)).x
        np.testing.assert_allclose(via_svd, via_cg, atol=1e-8)

    def test_shape_validation(self):
        svd = dense_svd(np.eye(4))
        with pytest.raises(ValueError):
            spectral_reconstruct(svd, np.ones(3), FilterSpec("tikhonov", 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        # one bad entry used to spread over every pixel of the result
        _, svd = make_rate_operator(seed=0)
        y = np.ones((16, 16))
        y[3, 5] = bad
        for data in (y, y.reshape(-1, 1)):   # an image and a block
            with pytest.raises(ValueError, match="non-finite"):
                spectral_reconstruct(svd, data, FilterSpec("tikhonov", 0.1))


class TestTikhonovReconstruct:
    """`Problem.reconstruct`, the direct per-column Tikhonov solve, at unit
    grid step, and the Tikhonov filter on a general operator."""

    def test_identity_half(self):
        y = np.arange(4.0).reshape(2, 2)
        x = spectral_reconstruct(operator_svd(dense_op(np.eye(4), (2, 2),
                                                       (2, 2))),
                                 y, FilterSpec("tikhonov", 1.0))
        np.testing.assert_allclose(x, y / 2.0, atol=1e-14)

    def test_stripe_operator_runs(self):
        problem = Problem(16, 1.0, 0.01)
        x_true = np.random.default_rng(0).random((16, 16))
        y = problem.op.apply(x_true)
        x = problem.reconstruct(y)
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(problem.op.apply(x) - y) < np.linalg.norm(y)

    def test_svd_agreement_16x16(self):
        problem = Problem(16, 1.0, 0.01)
        y = problem.op.apply(np.random.default_rng(1).random((16, 16)))
        via_svd = spectral_reconstruct(operator_svd(problem.op), y,
                                       FilterSpec("tikhonov", 0.01))
        np.testing.assert_allclose(problem.reconstruct(y), via_svd,
                                   atol=1e-8)

    def test_alpha_validated(self):
        for alpha in (0.0, -0.01):
            with pytest.raises(ValueError):
                Problem(16, 1.0, alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        y = np.ones((16, 16))
        y[4, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Problem(16, 1.0, 0.01).reconstruct(y)


class TestParamChoice:
    def test_exponent_one_at_mu_half(self):
        src = SourceCondition(mu=0.5, rho=1.0)
        assert param_choice(1e-2, src) == pytest.approx(1e-2)

    def test_rho_scaling(self):
        mu = 0.5
        a1 = param_choice(1e-2, SourceCondition(mu=mu, rho=1.0))
        a2 = param_choice(1e-2, SourceCondition(mu=mu, rho=2.0))
        assert a2 / a1 == pytest.approx(2.0 ** (-2.0 / (2 * mu + 1)))

    def test_delta_validated(self):
        for delta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                param_choice(delta, SourceCondition(mu=0.5, rho=1.0))

    def test_source_condition_validated(self):
        for mu, rho in ((-1.0, 1.0), (0.5, 0.0), (np.nan, 1.0),
                        (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                SourceCondition(mu=mu, rho=rho)


class TestSourceElement:
    """The single source element that criterion 6 and the rate-study tests
    feed a network (`oracles.source_element`)."""

    def test_mu_zero_is_direction(self):
        svd = dense_svd(np.diag([2.0, 1.0]))
        src = SourceCondition(mu=0.0, rho=3.0)
        x = source_element(svd, src, seed=1)
        assert np.linalg.norm(x) == pytest.approx(3.0)

    def test_identity_operator_any_mu(self):
        svd = dense_svd(np.eye(5))
        w = source_element(svd, SourceCondition(mu=0.0, rho=1.0), seed=2)
        x = source_element(svd, SourceCondition(mu=2.0, rho=1.0), seed=2)
        np.testing.assert_allclose(x, w, atol=1e-12)

    def test_diag_scaling(self):
        svd = dense_svd(np.diag([2.0, 1.0]))
        src = SourceCondition(mu=1.0, rho=1.0)
        x = source_element(svd, src, seed=3)
        # (A*A)^1 scales the first coordinate by 4 and the second by 1
        w = source_element(svd, SourceCondition(mu=0.0, rho=1.0), seed=3)
        np.testing.assert_allclose(x, np.array([4.0, 1.0]) * w, atol=1e-12)

    def test_rejects_zero_operator(self):
        svd = dense_svd(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            source_element(svd, SourceCondition(mu=0.5, rho=1.0))
