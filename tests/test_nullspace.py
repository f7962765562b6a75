"""Null-space projectors and the null-space network x + P U(x) of
`nn.forward`."""

import dataclasses

import numpy as np
import pytest

from nsrecon import nn, nullspace
from nsrecon.experiments import Problem, make_rate_operator
from nsrecon.linops import (cg_regularized_normal, dense_op, dense_svd,
                            operator_svd)
from nsrecon.nullspace import (iterative_projector, mask_projector,
                               project_null, svd_projector)


def subsampled_unitary(basis, kept):
    """S B on 4 x 4 images: the coefficients of the orthogonal basis B at
    `kept`, the rest zero-filled; its kernel projector is B.T (I - S.T S) B."""
    sel = np.zeros(basis.shape[0])
    sel[list(kept)] = 1.0
    return dense_op(sel[:, None] * basis, (4, 4), (4, 4))


def stripe_problem(n=16):
    """The stripe operator of `Problem` at unit grid step, and its support."""
    problem = Problem(n, 1.0, 0.01)
    return problem.op, problem.support


class TestProjectNull:
    def test_kernel_supported_input_unchanged(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
        z = np.random.default_rng(0).standard_normal((16, 16))
        z[support == 1.0] = 0.0
        np.testing.assert_array_equal(proj(z), z)

    def test_mask_projector_rejects_fractional_support(self):
        support = np.ones((4, 4))
        support[1, 2] = 0.5
        with pytest.raises(ValueError):
            mask_projector(support)

    def test_unitary_full_index_set_is_zero(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        proj = svd_projector(operator_svd(subsampled_unitary(basis,
                                                             range(16))))
        out = proj(rng.standard_normal((4, 4)))
        assert np.max(np.abs(out)) < 1e-12

    def test_bare_matrix_projectors_share_one_grid(self):
        # a bare m x n matrix has the grid (n,) under dense_op and dense_svd
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 4)) @ rng.standard_normal((4, 9))
        exact = svd_projector(dense_svd(a))
        iterative = iterative_projector(dense_op(a))
        assert exact.shape == iterative.shape == (9,)
        for z in (rng.standard_normal(9), rng.standard_normal((3, 9))):
            assert iterative(z).shape == z.shape
            np.testing.assert_allclose(iterative(z), exact(z), rtol=0,
                                       atol=1e-9)
            assert np.max(np.abs(exact(z) @ a.T)) <= 1e-12

    def test_columns_mark_what_the_projector_touches(self):
        # a mask projector marks the columns holding a 0 of its support
        # (whole stripes or single pixels); P z is 0 off them.  The SVD and
        # iterative projectors mark every column.  All are read-only.
        problem = Problem.benchmark(16)
        support = np.ones((5, 7))
        support[3, 6] = support[0, 2] = 0.0
        op, svd = make_rate_operator((4, 6), seed=1)
        cases = ((problem.projector, [0, 1, 4, 5, 8, 9, 12, 13]),
                 (mask_projector(support), [2, 6]),
                 (mask_projector(np.array([1.0, 0.0, 1.0])), [1]),
                 (svd_projector(svd), range(6)),
                 (iterative_projector(op), range(6)))
        rng = np.random.default_rng(2)
        for proj, marked in cases:
            assert proj.columns.dtype == bool
            assert proj.columns.shape == proj.shape[-1:]
            np.testing.assert_array_equal(np.flatnonzero(proj.columns),
                                          list(marked))
            assert np.all(proj(rng.standard_normal(proj.shape))
                          [..., ~proj.columns] == 0.0)
            with pytest.raises(ValueError, match="read-only"):
                proj.columns[0] = not proj.columns[0]

    def test_iterative_matches_closed_mask(self):
        op, support = stripe_problem()
        closed = mask_projector(support)
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

        def spy(*args, **kwargs):
            results.append(cg_regularized_normal(*args, **kwargs))
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

    def test_iterative_unconverged_raises(self, monkeypatch):
        monkeypatch.setattr(nullspace, "_PROJECTOR_MAX_ITERS", 1)
        op, _ = stripe_problem()
        proj = iterative_projector(op)
        with pytest.raises(RuntimeError, match="did not converge"):
            proj(np.random.default_rng(12).standard_normal((16, 16)))

    def test_iterative_unconverged_block_names_columns(self, monkeypatch):
        monkeypatch.setattr(nullspace, "_PROJECTOR_MAX_ITERS", 1)
        op, _ = stripe_problem()
        proj = iterative_projector(op)
        z = np.random.default_rng(12).standard_normal((3, 16, 16))
        with pytest.raises(RuntimeError, match=r"did not converge: 3 of 3 "
                           r"columns .* worst relative residual"):
            proj(z)

    @pytest.mark.parametrize("k", [1, 4])
    def test_iterative_stack_is_one_solve(self, k, monkeypatch):
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=1)
        exact = svd_projector(svd)
        results = []

        def spy(*args, **kwargs):
            results.append(cg_regularized_normal(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(nullspace, "cg_regularized_normal", spy)
        z = np.random.default_rng(14).standard_normal((k, 16, 16))
        p = iterative_projector(op)(z)
        assert len(results) == 1 and results[0].converged
        assert p.shape == z.shape
        for got, col in zip(p, z):
            gap = np.linalg.norm(got - exact(col)) / np.linalg.norm(col)
            assert gap <= 1e-8

    def test_mask_stack_is_bit_exact(self):
        _, support = stripe_problem()
        proj = mask_projector(support)
        z = np.random.default_rng(15).standard_normal((5, 16, 16))
        p = proj(z)
        for i in range(5):
            np.testing.assert_array_equal(p[i], proj(z[i]))

    def test_svd_stack_matches_images(self):
        _, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=2)
        proj = svd_projector(svd)
        z = np.random.default_rng(16).standard_normal((5, 16, 16))
        p = proj(z)
        for i in range(5):
            np.testing.assert_allclose(p[i], proj(z[i]), rtol=0,
                                       atol=1e-14)

    def test_stack_shape_validated(self):
        _, support = stripe_problem()
        proj = mask_projector(support)
        for shape in [(16, 15), (2, 16, 15), (1, 2, 16, 16)]:
            with pytest.raises(ValueError):
                proj(np.zeros(shape))

    def test_closed_form_invariants(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
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
        op, support = stripe_problem()
        with pytest.raises(ValueError):
            project_null(mask_projector(support), np.zeros((3, 3)))


def solve_spy(monkeypatch):
    """Results of every block solve the projectors make from now on."""
    results = []

    def spy(*args, **kwargs):
        results.append(cg_regularized_normal(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(nullspace, "cg_regularized_normal", spy)
    return results


def relative_gaps(got, want, z):
    """Per-image |got - want| / |z| of two stacks of images."""
    k = len(z)
    return (np.linalg.norm((got - want).reshape(k, -1), axis=1)
            / np.linalg.norm(z.reshape(k, -1), axis=1))


class TestKrylovReuse:
    """`iterative_projector` holds the Krylov space of its last solve and
    keeps the Galerkin solution in it when it passes the solver's test."""

    def full_rank(self, monkeypatch):
        # seed 3: ten images fill range(A*) (23 block steps of 10, rank 224)
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=3)
        proj = iterative_projector(op)
        results = solve_spy(monkeypatch)
        z = np.random.default_rng(30).standard_normal((10, 16, 16))
        gaps = relative_gaps(proj(z), svd_projector(svd)(z), z)
        assert len(results) == 1 and np.all(gaps <= 1e-8)
        return proj, svd_projector(svd), results

    def test_full_rank_space_serves_the_next_call(self, monkeypatch):
        proj, exact, results = self.full_rank(monkeypatch)
        rng = np.random.default_rng(31)
        for z in (rng.standard_normal((1, 16, 16)),
                  rng.standard_normal((4, 16, 16))):
            assert np.all(relative_gaps(proj(z), exact(z), z) <= 1e-8)
        assert len(results) == 1

    def test_partial_space_solves_again(self, monkeypatch):
        # one image's 22 steps on the stripe operator span only its own
        # Krylov space: the next image fails the test and is solved
        op, support = stripe_problem()
        proj = iterative_projector(op)
        results = solve_spy(monkeypatch)
        rng = np.random.default_rng(32)
        for _ in range(2):
            z = rng.standard_normal((16, 16))
            np.testing.assert_allclose(proj(z), mask_projector(support)(z),
                                       rtol=0, atol=1e-10)
        assert len(results) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_held_space_still_rejects_non_finite(self, bad, monkeypatch):
        proj, _, _ = self.full_rank(monkeypatch)
        z = np.zeros((16, 16))
        z[3, 5] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            proj(z)

    def test_zero_column_returns_zero(self, monkeypatch):
        proj, exact, results = self.full_rank(monkeypatch)
        z = np.random.default_rng(33).standard_normal((3, 16, 16))
        z[1] = 0.0
        p = proj(z)
        np.testing.assert_array_equal(p[1], 0.0)
        assert np.all(relative_gaps(p[::2], exact(z[::2]), z[::2]) <= 1e-8)
        assert len(results) == 1
        fresh = iterative_projector(make_rate_operator(seed=3)[0])
        np.testing.assert_array_equal(fresh(np.zeros((16, 16))), 0.0)

    def test_failed_solve_keeps_the_held_space(self, monkeypatch):
        proj, exact, results = self.full_rank(monkeypatch)
        spy = nullspace.cg_regularized_normal

        def fail(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(nullspace, "cg_regularized_normal", fail)
        z = np.zeros((16, 16))
        z[0, 0] = np.nan       # skips the held space, so it must solve
        with pytest.raises(RuntimeError, match="solver failed"):
            proj(z)
        monkeypatch.setattr(nullspace, "cg_regularized_normal", spy)
        z = np.random.default_rng(34).standard_normal((2, 16, 16))
        assert np.all(relative_gaps(proj(z), exact(z), z) <= 1e-8)
        assert len(results) == 1

    def test_answer_is_judged_not_the_solver_verdict(self, monkeypatch):
        # the solver's residual estimate can read above the tolerance once
        # its basis has closed at the rank while its answer passes: that
        # answer is kept, and its directions serve the next call
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=3)
        results = []

        def doubtful(*args, **kwargs):
            results.append(cg_regularized_normal(*args, **kwargs))
            return dataclasses.replace(results[-1], converged=False,
                                       unconverged=10, rel_residual=1.0)

        monkeypatch.setattr(nullspace, "cg_regularized_normal", doubtful)
        proj, exact = iterative_projector(op), svd_projector(svd)
        rng = np.random.default_rng(35)
        for k in (10, 3):
            z = rng.standard_normal((k, 16, 16))
            assert np.all(relative_gaps(proj(z), exact(z), z) <= 1e-8)
        assert len(results) == 1

    def test_missed_answer_raises_and_keeps_the_held_space(self,
                                                           monkeypatch):
        # a solve whose answer misses the test, even after one correction
        # in the directions it returns, raises when the solver declares it
        # converged, and the directions held before stay: the first image
        # is served by them again without a solve.  The returned directions
        # are cut to one, so the halved answer's error lies outside them
        op, support = stripe_problem()
        proj = iterative_projector(op)
        results = solve_spy(monkeypatch)
        first, second = np.random.default_rng(36).standard_normal((2, 16, 16))
        want = proj(first)
        spy = nullspace.cg_regularized_normal

        def wrong(*args, **kwargs):
            res = spy(*args, **kwargs)
            return dataclasses.replace(res, x=0.5 * res.x,
                                       directions=res.directions[:1])

        monkeypatch.setattr(nullspace, "cg_regularized_normal", wrong)
        with pytest.raises(RuntimeError, match=r"did not converge: 1 of 1 "
                           r"columns after \d+ block steps"):
            proj(second)
        assert len(results) == 2 and results[1].converged
        np.testing.assert_array_equal(proj(first), want)
        assert len(results) == 2


def small_net(seed, scale=1.0):
    """Random 3-layer CNN parameters for the network x + P U(x)."""
    arch = nn.Architecture(layers=3, width=2)
    return nn.init_params(arch, seed).scaled(scale)


def nsn(params, proj, x):
    """The null-space network f(x) = x + P U(x), as `nn.forward` runs it."""
    return nn.forward(params, x, proj)[0]


class TestNsnApply:
    def test_zero_correction_is_identity(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
        x = np.random.default_rng(5).standard_normal((16, 16))
        np.testing.assert_array_equal(nsn(small_net(5, 0.0), proj, x), x)

    def test_measurement_invariance(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
        rng = np.random.default_rng(6)
        params = small_net(6)
        for _ in range(10):
            x = rng.standard_normal((16, 16))
            out = nsn(params, proj, x)
            assert np.max(np.abs(op.apply(out) - op.apply(x))) <= 1e-12

    def test_residual_preservation(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
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
        op, support = stripe_problem()
        proj = mask_projector(support)
        y = op.apply(np.random.default_rng(8).random((16, 16)))
        recon = Problem(16, 1.0, 0.01).reconstruct
        out = nsn(small_net(8, 0.0), proj, recon(y))
        np.testing.assert_array_equal(out, recon(y))

    def test_residual_vanishes_with_alpha(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
        x_true = np.random.default_rng(9).random((16, 16))
        y = op.apply(x_true)  # exact data
        params = small_net(9)

        prev = np.inf
        for alpha in (1e-2, 1e-4, 1e-6, 1e-8):
            recon = Problem(16, 1.0, alpha).reconstruct
            out = nsn(params, proj, recon(y))
            res = np.linalg.norm(op.apply(out) - y)
            assert res <= prev * 1.01
            prev = res
        assert prev <= 1e-6

    def test_right_inverse_on_range(self):
        op, support = stripe_problem()
        proj = mask_projector(support)
        y = op.apply(np.random.default_rng(10).random((16, 16)))
        # a near-exact solve stands in for the pseudo-inverse
        recon = Problem(16, 1.0, 1e-12).reconstruct
        out = nsn(small_net(10), proj, recon(y))
        assert np.linalg.norm(op.apply(out) - y) <= 1e-6 * np.linalg.norm(y)
