"""Null-space projectors and the null-space network x + P U(x) of
`nn.forward`."""

import numpy as np
import pytest

from nsrecon import nn, nullspace
from nsrecon.experiments import make_rate_operator
from nsrecon.linops import SolverConfig, cg_regularized_normal
from nsrecon.nullspace import (iterative_projector, mask_projector,
                               project_null, svd_projector)
from nsrecon.operators import dense_op, make_stripe_operator, operator_svd
from nsrecon.regularize import tikhonov_reconstruct


def subsampled_unitary(basis, kept):
    """S B on 4 x 4 images: the coefficients of the orthogonal basis B at
    `kept`, the rest zero-filled; its kernel projector is B.T (I - S.T S) B."""
    sel = np.zeros(basis.shape[0])
    sel[list(kept)] = 1.0
    return dense_op(sel[:, None] * basis, (4, 4), (4, 4))


def stripe_problem(n=16):
    op, mask, kept = make_stripe_operator(n, n)
    return op, mask, kept


class TestProjectNull:
    def test_kernel_supported_input_unchanged(self):
        op, mask, kept = stripe_problem()
        proj = mask_projector(op, mask)
        z = np.random.default_rng(0).standard_normal((16, 16))
        z[:, list(kept)] = 0.0
        np.testing.assert_array_equal(proj(z), z)

    def test_unitary_full_index_set_is_zero(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        proj = svd_projector(operator_svd(subsampled_unitary(basis,
                                                             range(16))))
        out = proj(rng.standard_normal((4, 4)))
        assert np.max(np.abs(out)) < 1e-12

    def test_iterative_matches_closed_mask(self):
        op, mask, _ = stripe_problem()
        closed = mask_projector(op, mask)
        iterative = iterative_projector(op)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            z = rng.standard_normal((16, 16))
            diff = np.linalg.norm(iterative(z) - closed(z))
            worst = max(worst, diff / np.linalg.norm(z))
        assert worst <= 1e-6

    def test_iterative_matches_svd_on_rate_operator(self):
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=0)
        exact = svd_projector(svd)
        iterative = iterative_projector(op)
        rng = np.random.default_rng(13)
        for _ in range(3):
            z = rng.standard_normal((16, 16))
            gap = np.linalg.norm(iterative(z) - exact(z)) / np.linalg.norm(z)
            assert gap <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_iterative_stops_at_rank(self, seed, monkeypatch):
        # rank 256 - 32 = 224: reorthogonalised CG terminates within it
        op, _ = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=seed)
        results = []

        def spy(*args):
            results.append(cg_regularized_normal(*args))
            return results[-1]

        monkeypatch.setattr(nullspace, "cg_regularized_normal", spy)
        iterative_projector(op)(
            np.random.default_rng(seed).standard_normal((16, 16)))
        assert len(results) == 1
        assert results[0].converged
        assert results[0].iters <= 224

    @pytest.mark.parametrize("seed", range(4))
    def test_iterative_agrees_with_svd_to_1e8(self, seed):
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=seed)
        exact = svd_projector(svd)
        iterative = iterative_projector(op)
        rng = np.random.default_rng(13)
        for _ in range(3):
            z = rng.standard_normal((16, 16))
            gap = np.linalg.norm(iterative(z) - exact(z)) / np.linalg.norm(z)
            assert gap <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_iterative_non_finite_input_rejected(self, bad):
        op, _ = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=0)
        z = np.zeros((16, 16))
        z[3, 5] = bad
        # the operator turns inf into nan (inf - inf, inf * 0); numpy's
        # warning for that is silenced so that the solver's check shows
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            iterative_projector(op)(z)

    def test_iterative_unconverged_raises(self):
        op, _, _ = stripe_problem()
        proj = iterative_projector(op, SolverConfig(max_iters=1))
        with pytest.raises(RuntimeError, match="did not converge"):
            proj(np.random.default_rng(12).standard_normal((16, 16)))

    def test_closed_form_invariants(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.standard_normal((16, 16))
            w = rng.standard_normal((16, 16))
            p = proj(z)
            assert np.max(np.abs(proj(p) - p)) <= 1e-10  # idempotent
            assert abs(np.vdot(proj(z), w) -
                       np.vdot(z, proj(w))) <= 1e-10     # self-adjoint
            assert np.max(np.abs(op.apply(p))) <= 1e-10  # annihilated by A

    def test_unitary_invariants(self):
        rng = np.random.default_rng(4)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        op = subsampled_unitary(basis, (0, 3, 7))
        proj = svd_projector(operator_svd(op))
        z = rng.standard_normal((4, 4))
        p = proj(z)
        assert np.max(np.abs(proj(p) - p)) <= 1e-10
        assert np.max(np.abs(op.apply(p))) <= 1e-10

    def test_svd_matches_unitary_closed_form(self):
        # B.T (I - S.T S) B zeroes the kept coefficients of z
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        kept = [0, 3, 7, 8]
        proj = svd_projector(operator_svd(subsampled_unitary(basis, kept)))
        for _ in range(10):
            z = rng.standard_normal((4, 4))
            coeff = basis @ z.ravel()
            coeff[kept] = 0.0
            closed = (basis.T @ coeff).reshape(4, 4)
            assert np.max(np.abs(proj(z) - closed)) <= 1e-12

    def test_method_validation(self):
        op, mask, _ = stripe_problem()
        with pytest.raises(ValueError):
            project_null(mask_projector(op, mask), np.zeros((3, 3)))


def small_net(seed, scale=1.0):
    """Random 3-layer CNN parameters for the network x + P U(x)."""
    arch = nn.Architecture(layers=3, width=2)
    return nn.init_params(arch, seed).scaled(scale)


def nsn(params, proj, x):
    """The null-space network f(x) = x + P U(x), as `nn.forward` runs it."""
    return nn.forward(params, x, proj)[0]


class TestNsnApply:
    def test_zero_correction_is_identity(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        x = np.random.default_rng(5).standard_normal((16, 16))
        np.testing.assert_array_equal(nsn(small_net(5, 0.0), proj, x), x)

    def test_measurement_invariance(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        rng = np.random.default_rng(6)
        params = small_net(6)
        for _ in range(10):
            x = rng.standard_normal((16, 16))
            out = nsn(params, proj, x)
            assert np.max(np.abs(op.apply(out) - op.apply(x))) <= 1e-12

    def test_residual_preservation(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        rng = np.random.default_rng(7)
        params = small_net(7)
        for _ in range(100):
            x = rng.standard_normal((16, 16))
            y = rng.standard_normal((16, 16))
            before = np.linalg.norm(op.apply(x) - y)
            after = np.linalg.norm(op.apply(nsn(params, proj, x)) - y)
            assert after <= before + 1e-12


class TestRegularizingNsn:
    """The null-space network after a regularized reconstruction."""

    def test_zero_correction_reduces_to_tikhonov(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        y = op.apply(np.random.default_rng(8).random((16, 16)))

        def recon(data):
            return tikhonov_reconstruct(op, data, 0.01).x

        out = nsn(small_net(8, 0.0), proj, recon(y))
        np.testing.assert_array_equal(out, recon(y))

    def test_residual_vanishes_with_alpha(self):
        op, mask, _ = stripe_problem()
        proj = mask_projector(op, mask)
        x_true = np.random.default_rng(9).random((16, 16))
        y = op.apply(x_true)  # exact data
        params = small_net(9)

        prev = np.inf
        for alpha in (1e-2, 1e-4, 1e-6, 1e-8):
            def recon(data, a=alpha):
                return tikhonov_reconstruct(
                    op, data, a, SolverConfig(tol=1e-13, max_iters=50000)).x
            out = nsn(params, proj, recon(y))
            res = np.linalg.norm(op.apply(out) - y)
            assert res <= prev * 1.01
            prev = res
        assert prev <= 1e-6

    def test_right_inverse_on_range(self):
        op, mask, kept = stripe_problem()
        proj = mask_projector(op, mask)
        svd_cfg = SolverConfig(tol=1e-13, max_iters=50000)
        y = op.apply(np.random.default_rng(10).random((16, 16)))

        def recon(data):
            # near-exact solve stands in for the pseudo-inverse
            return tikhonov_reconstruct(op, data, 1e-12, svd_cfg).x

        out = nsn(small_net(10), proj, recon(y))
        assert np.linalg.norm(op.apply(out) - y) <= 1e-6 * np.linalg.norm(y)
