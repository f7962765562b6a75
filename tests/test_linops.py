"""Operator plumbing: adjoint checks, CG, dense SVD and the pseudo-inverse."""

import numpy as np
import pytest

from nsrecon.linops import (SolverConfig, adjoint_check, cg_regularized_normal,
                            dense_svd, pseudo_inverse_apply)
from nsrecon.operators import (StripeMaskSpec, dense_op, make_cumsum,
                               make_stripe_mask, operator_svd, to_dense)


def cumsum_spectrum(n):
    # singular values of the n x n lower-triangular all-ones matrix
    k = np.arange(1, n + 1)
    return 1.0 / (2.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))))


class TestAdjointCheck:
    def test_identity(self):
        op = dense_op(np.eye(9), (3, 3), (3, 3))
        assert adjoint_check(op, trials=10) < 1e-15

    def test_cumsum_column_pairing(self):
        op = make_cumsum(3, 1)
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.0], [0.0], [1.0]])
        lhs = float(np.vdot(op.apply(u), v))
        rhs = float(np.vdot(u, op.adjoint(v)))
        assert lhs == rhs == 1.0

    def test_random_dense(self):
        rng = np.random.default_rng(3)
        op = dense_op(rng.standard_normal((64, 64)), (8, 8), (8, 8))
        assert adjoint_check(op, trials=50) < 1e-12

    def test_trials_validated(self):
        op = make_cumsum(3, 3)
        with pytest.raises(ValueError):
            adjoint_check(op, trials=0)


class TestOperatorNorm:
    def test_identity(self):
        op = dense_op(np.eye(16), (4, 4), (4, 4))
        assert operator_svd(op).s[0] == pytest.approx(1.0, abs=1e-12)

    def test_cumsum_3(self):
        assert operator_svd(make_cumsum(3, 1)).s[0] == pytest.approx(
            1.0 / (2 * np.sin(np.pi / 14)), rel=1e-12)

    def test_mask_is_projection(self):
        mask = make_stripe_mask(StripeMaskSpec(image_width=8, k_range=(0,)), 8)
        assert operator_svd(mask).s[0] == pytest.approx(1.0, abs=1e-12)


class TestCg:
    def test_identity_regularized(self):
        op = dense_op(np.eye(4), (2, 2), (2, 2))
        rhs = np.arange(4.0).reshape(2, 2)
        res = cg_regularized_normal(op, rhs, 1.0, SolverConfig())
        assert res.converged
        np.testing.assert_allclose(res.x, rhs / 2.0, atol=1e-10)

    def test_scaling_unregularized(self):
        op = dense_op(2.0 * np.eye(4), (2, 2), (2, 2))
        e = np.ones((2, 2))
        res = cg_regularized_normal(op, 4.0 * e, 0.0, SolverConfig())
        np.testing.assert_allclose(res.x, e, atol=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        op = dense_op(a, (4, 4), (4, 4))
        rhs = rng.standard_normal((4, 4))
        lam = 0.3
        res = cg_regularized_normal(op, rhs, lam, SolverConfig(tol=1e-12))
        direct = np.linalg.solve(a.T @ a + lam * np.eye(16), rhs.ravel())
        np.testing.assert_allclose(res.x.ravel(), direct, atol=1e-8)

    def test_rejects_negative_lam(self):
        op = make_cumsum(3, 3)
        with pytest.raises(ValueError):
            cg_regularized_normal(op, np.zeros((3, 3)), -1.0, SolverConfig())

    def test_rejects_bad_rhs_shape(self):
        op = make_cumsum(3, 3)
        with pytest.raises(ValueError):
            cg_regularized_normal(op, np.zeros((2, 2)), 1.0, SolverConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        op = make_cumsum(3, 3)
        rhs = np.ones((3, 3))
        rhs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cg_regularized_normal(op, rhs, 0.0, SolverConfig())

    def test_reports_iterations_run_on_singular_stop(self):
        # p = rhs spans the kernel of A, so the first step has p.A*Ap = 0
        op = dense_op(np.diag([1.0, 0.0]))
        res = cg_regularized_normal(op, np.array([[0.0], [1.0]]), 0.0,
                                    SolverConfig())
        assert not res.converged
        assert res.iters == 0

    def test_stops_on_full_basis(self):
        # no residual reaches tol = 1e-300; the loop ends after n = 8 steps,
        # when the reorthogonalisation basis spans the whole space
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8))
        op = dense_op(a, (2, 4), (2, 4))
        rhs = rng.standard_normal((2, 4))
        res = cg_regularized_normal(op, rhs, 0.0,
                                    SolverConfig(tol=1e-300, max_iters=100))
        assert res.iters == 8
        np.testing.assert_allclose(
            res.x.ravel(), np.linalg.solve(a.T @ a, rhs.ravel()), rtol=1e-8)


class TestDenseSvd:
    def test_identity(self):
        svd = dense_svd(np.eye(3))
        np.testing.assert_allclose(svd.s, np.ones(3))
        assert svd.rank == 3

    def test_rank_deficient_diag(self):
        svd = dense_svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(svd.s, [3.0, 0.0])
        assert svd.rank == 1

    def test_cumsum_3x3_spectrum(self):
        mat = to_dense(make_cumsum(3, 1))
        svd = dense_svd(mat)
        np.testing.assert_allclose(svd.s, cumsum_spectrum(3), rtol=1e-10)
        np.testing.assert_allclose(svd.s, [2.2470, 0.8019, 0.5550], atol=2e-4)

    def test_cumsum_injective_up_to_64(self):
        for n in (8, 32, 64):
            assert cumsum_spectrum(n)[-1] > 0.49
        mat = to_dense(make_cumsum(64, 1))
        assert dense_svd(mat).s[-1] > 0.49

    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((5, 8))
        np.testing.assert_allclose(dense_svd(mat).matrix(), mat, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dense_svd(np.ones(3))
        with pytest.raises(ValueError):
            dense_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPseudoInverse:
    def test_invertible_diag(self):
        svd = dense_svd(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(
            pseudo_inverse_apply(svd, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_drops_null_component(self):
        svd = dense_svd(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            pseudo_inverse_apply(svd, np.array([5.0, 7.0])), [5.0, 0.0])

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        svd = dense_svd(a)
        pinv = np.column_stack([
            pseudo_inverse_apply(svd, e) for e in np.eye(6)])
        np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-9)
        np.testing.assert_allclose(pinv @ a @ pinv, pinv, atol=1e-9)
        np.testing.assert_allclose(a @ pinv, (a @ pinv).T, atol=1e-9)
        np.testing.assert_allclose(pinv @ a, (pinv @ a).T, atol=1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
