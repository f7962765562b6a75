"""Operator plumbing: the per-column integration, adjoint checks, dense
forms and wrappers, CG, dense SVD and the pseudo-inverse."""

import numpy as np
import pytest

from nsrecon.experiments import Problem, make_rate_operator
from nsrecon.linops import (MatvecOp, SvdFactors, _galerkin, adjoint_check,
                            cg_regularized_normal, dense_op, dense_svd,
                            make_cumsum, operator_svd, pseudo_inverse_apply,
                            to_dense)
from nsrecon.nullspace import iterative_projector, svd_projector
from oracles import (adjoint_check_reference, cg_reference, rank_reference,
                     tikhonov_stack, to_dense_reference)


def cumsum_spectrum(n):
    # singular values of the n x n lower-triangular all-ones matrix
    k = np.arange(1, n + 1)
    return 1.0 / (2.0 * np.sin((2 * k - 1) * np.pi / (2 * (2 * n + 1))))


def wrong_adjoints(rank, seed):
    """A 12 x 6 matrix A of the rank between (6,) and (12,), twice: with
    2 A.T, and with the transpose of another matrix, posing as A*."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, rank)) @ rng.standard_normal((rank, 6))
    return [MatvecOp((6,), (12,), lambda x: x @ a.T,
                     lambda y, wrong=wrong: y @ wrong)
            for wrong in (2.0 * a, rng.standard_normal((12, 6)))]


class TestCumsum:
    def test_column(self):
        op = make_cumsum(3, 1)
        x = np.array([[1.0], [0.0], [2.0]])
        np.testing.assert_array_equal(op.apply(x),
                                      np.array([[1.0], [1.0], [3.0]]))

    def test_adjoint_is_suffix_sum(self):
        op = make_cumsum(3, 1)
        y = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(op.adjoint(y),
                                      np.array([[6.0], [5.0], [3.0]]))

    def test_adjoint_defect(self):
        assert adjoint_check(make_cumsum(8, 8)) < 1e-12

    def test_spacing_scales_linearly(self):
        x = np.random.default_rng(0).standard_normal((6, 4))
        coarse = make_cumsum(6, 4).apply(x)
        fine = make_cumsum(6, 4, spacing=0.25).apply(x)
        np.testing.assert_allclose(fine, 0.25 * coarse)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cumsum(0, 3)
        for spacing in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="spacing must be finite and positive"):
                make_cumsum(3, 3, spacing)


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

    def test_rank_one_draw_reads_rounding(self):
        # a draw of test_properties.low_rank: a 12 x 6 rank-1 matrix on
        # which A u nearly vanishes for one test pair; scaled by |A u| |v|
        # alone, the defect read 3.4e-12
        rng = np.random.default_rng(9444)
        m, n = rng.integers(1, 13, 2)
        r = rng.integers(0, min(m, n) + 1)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = rng.uniform(0.1, 10, r)
        a = (u[:, :r] * s) @ v[:, :r].T
        assert a.shape == (12, 6) and np.linalg.matrix_rank(a) == 1
        assert adjoint_check(dense_op(a), seed=9444) <= 1e-12

    @pytest.mark.parametrize("rank", [1, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_wrong_adjoint_fails(self, rank, seed):
        for op in wrong_adjoints(rank, seed):
            assert adjoint_check(op, seed=seed) > 1e-3

    @pytest.mark.parametrize("rank", [1, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_pairs_match_pair_loop(self, rank, seed):
        # a defect well above rounding is a function of the draws, so
        # agreement pins them: row t of the stacked draw is pair t, u then v
        for op in wrong_adjoints(rank, seed):
            for trials in (1, 7, 50):
                assert adjoint_check(op, trials, seed) == pytest.approx(
                    adjoint_check_reference(op, trials, seed), rel=1e-12)

    def test_stacked_pairs_match_pair_loop_on_grids(self):
        # (5, 3) images to (10, 3) data, with twice the adjoint as A*
        op = tikhonov_stack(make_cumsum(5, 3, 0.5), 0.3)
        wrong = MatvecOp(op.in_shape, op.out_shape, op.apply,
                         lambda y: 2.0 * op.adjoint(y))
        assert adjoint_check(wrong, seed=4) == pytest.approx(
            adjoint_check_reference(wrong, seed=4), rel=1e-12)

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
        support = np.zeros((8, 8))
        support[:, :2] = 1.0
        mask = dense_op(np.diag(support.ravel()), (8, 8), (8, 8))
        assert operator_svd(mask).s[0] == pytest.approx(1.0, abs=1e-12)


def counted(op):
    """op behind a MatvecOp that records the shape of each apply and
    adjoint argument: (wrapped op, list of shapes)."""
    calls = []

    def forward(x):
        calls.append(x.shape)
        return op.apply(x)

    def backward(y):
        calls.append(y.shape)
        return op.adjoint(y)

    return MatvecOp(op.in_shape, op.out_shape, forward, backward), calls


DENSE_CASES = {
    "cumsum": lambda: make_cumsum(5, 3, 0.25),
    "dense_op": lambda: dense_op(
        np.random.default_rng(8).standard_normal((6, 10)), (2, 5), (3, 2)),
    "problem": lambda: Problem(14, 0.5, 0.01).op,
    "rate": lambda: make_rate_operator(seed=1)[0],
    "tikhonov_stack": lambda: tikhonov_stack(Problem(14, 0.5, 0.01).op, 0.3),
}


class TestDenseForms:
    """`to_dense` and `operator_svd` share `dense_svd`'s size limit."""

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_to_dense_matches_column_loop(self, case):
        op = DENSE_CASES[case]()
        np.testing.assert_array_equal(to_dense(op), to_dense_reference(op))

    def test_to_dense_is_one_stacked_apply(self):
        op, calls = counted(Problem(14, 1.0, 0.01).op)
        assert to_dense(op).shape == (196, 196)
        assert calls == [(196, 14, 14)]

    @pytest.mark.parametrize("densify", [to_dense, operator_svd])
    @pytest.mark.parametrize("case", ["input", "output", "benchmark"])
    def test_refused_past_limit_before_any_apply(self, densify, case):
        op = {"input": lambda: make_cumsum(1025, 1),
              "output": lambda: dense_op(np.ones((1025, 1))),
              "benchmark": lambda: Problem.benchmark().op}[case]()
        op, calls = counted(op)
        with pytest.raises(ValueError, match="exceeds 1024"):
            densify(op)
        assert calls == []

    def test_limit_is_inclusive(self):
        op, calls = counted(dense_op(np.ones((1024, 1))))
        assert operator_svd(op).s[0] == pytest.approx(32.0, rel=1e-12)
        assert calls == [(1, 1)]

    @pytest.mark.parametrize("shape", [(1025, 1), (1, 1025)])
    def test_dense_svd_refuses_past_limit(self, shape):
        with pytest.raises(ValueError, match="exceeds 1024"):
            dense_svd(np.zeros(shape))


class TestDense:
    def test_identity_matrix(self):
        np.testing.assert_array_equal(
            to_dense(dense_op(np.eye(4), (2, 2), (2, 2))), np.eye(4))

    def test_cumsum_2x1(self):
        np.testing.assert_array_equal(to_dense(make_cumsum(2, 1)),
                                      np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_transpose_matches_adjoint(self):
        op = Problem(14, 1.0, 0.01).op
        mat = to_dense(op)
        for j in range(14 * 14):
            e = np.zeros(14 * 14)
            e[j] = 1.0
            np.testing.assert_allclose(
                op.adjoint(e.reshape(14, 14)).ravel(), mat.T[:, j],
                atol=1e-14)

    def test_dense_op_roundtrip(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((16, 16))
        np.testing.assert_allclose(to_dense(dense_op(mat, (4, 4), (4, 4))),
                                   mat, atol=1e-14)

    def test_operator_svd_keeps_shapes(self):
        op = Problem(14, 1.0, 0.01).op
        svd = operator_svd(op)
        assert svd.in_shape == (14, 14) and svd.out_shape == (14, 14)
        np.testing.assert_allclose(svd.matrix(), to_dense(op), atol=1e-12)

    def test_dense_op_shape_validation(self):
        with pytest.raises(ValueError):
            dense_op(np.eye(4), (3, 3), (2, 2))
        # dense_svd's checks
        for matrix, message in [(np.ones(4), "expected a 2D matrix"),
                                (np.ones((2, 2, 2)), "expected a 2D matrix"),
                                ([[1.0, np.nan]], "non-finite entries"),
                                ([[np.inf], [0.0]], "non-finite entries")]:
            with pytest.raises(ValueError, match=message):
                dense_op(matrix)


class TestCg:
    def test_identity_regularized(self):
        op = dense_op(np.eye(4), (2, 2), (2, 2))
        rhs = np.arange(4.0).reshape(2, 2)
        res = cg_regularized_normal(tikhonov_stack(op, 1.0), rhs,
                                    tol=1e-8, max_iters=10000)
        assert res.converged
        np.testing.assert_allclose(res.x, rhs / 2.0, atol=1e-10)

    def test_scaling_unregularized(self):
        op = dense_op(2.0 * np.eye(4), (2, 2), (2, 2))
        e = np.ones((2, 2))
        res = cg_regularized_normal(op, 4.0 * e, tol=1e-8, max_iters=10000)
        np.testing.assert_allclose(res.x, e, atol=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        op = dense_op(a, (4, 4), (4, 4))
        rhs = rng.standard_normal((4, 4))
        lam = 0.3
        res = cg_regularized_normal(tikhonov_stack(op, lam), rhs,
                                    tol=1e-12, max_iters=10000)
        direct = np.linalg.solve(a.T @ a + lam * np.eye(16), rhs.ravel())
        np.testing.assert_allclose(res.x.ravel(), direct, atol=1e-8)

    def test_rejects_bad_rhs_shape(self):
        op = make_cumsum(3, 3)
        with pytest.raises(ValueError):
            cg_regularized_normal(op, np.zeros((2, 2)), tol=1e-8,
                                  max_iters=10000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        op = make_cumsum(3, 3)
        rhs = np.ones((3, 3))
        rhs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cg_regularized_normal(op, rhs, tol=1e-8, max_iters=10000)

    def test_reports_iterations_run_on_singular_stop(self):
        # p = rhs spans the kernel of A, so the first step has p.A*Ap = 0
        op = dense_op(np.diag([1.0, 0.0]))
        res = cg_regularized_normal(op, np.array([0.0, 1.0]), tol=1e-8,
                                    max_iters=10000)
        assert not res.converged
        assert res.iters == 0

    def test_stops_on_full_basis(self):
        # no residual reaches tol = 1e-300; the loop ends after n = 8 steps,
        # when the reorthogonalisation basis spans the whole space
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8))
        op = dense_op(a, (2, 4), (2, 4))
        rhs = rng.standard_normal((2, 4))
        res = cg_regularized_normal(op, rhs,
                                    tol=1e-300, max_iters=100)
        assert res.iters == 8
        np.testing.assert_allclose(
            res.x.ravel(), np.linalg.solve(a.T @ a, rhs.ravel()), rtol=1e-8)


def column_gaps(got, want, scale):
    """Per-column |got - want| / |scale| of two stacks of images."""
    k = len(scale)
    return (np.linalg.norm((got - want).reshape(k, -1), axis=1)
            / np.linalg.norm(scale.reshape(k, -1), axis=1))


class TestBlockCg:
    """The block solver against the single-column CG it replaced
    (`oracles.cg_reference`) and against the exact SVD solution."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_row_space_solve_matches_oracles(self, seed, k):
        # A*A x = A*A z (the iterative projector's solve) has
        # the minimal-norm solution z - P z, P the kernel projector
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=seed)
        z = np.random.default_rng(seed).standard_normal((k, 16, 16))
        rhs = op.adjoint(op.apply(z))
        cfg = dict(tol=1e-14, max_iters=20000)
        res = cg_regularized_normal(op, rhs, **cfg)
        assert res.converged and res.unconverged == 0
        assert res.x.shape == z.shape
        assert res.iters <= 224
        loop = np.stack([cg_reference(op, col, **cfg).x for col in rhs])
        exact = z - svd_projector(svd)(z)
        assert np.all(column_gaps(res.x, loop, z) <= 1e-8)
        assert np.all(column_gaps(res.x, exact, z) <= 1e-8)

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_basis_stops_at_rank(self, k):
        # rank 256 - 32 = 224: no kernel direction enters the basis, so
        # the solution has no kernel part and A meets at most the rank,
        # plus the last block, whose kernel directions the energy test drops
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=k)
        z = np.random.default_rng(k).standard_normal((k, 16, 16))
        rhs = op.adjoint(op.apply(z))
        columns = []
        forward = op._forward
        op._forward = lambda x: (columns.append(len(x)), forward(x))[1]
        res = cg_regularized_normal(op, rhs, tol=1e-14, max_iters=10000)
        assert sum(columns) <= 224 + k
        kernel = svd_projector(svd)(res.x)
        assert np.all(column_gaps(kernel, 0.0 * z, z) <= 1e-8)

    def test_regularized_block_on_stripe_operator(self):
        # A*A + 0.3 I as the normal operator of the stacked [A; sqrt(0.3) I]
        op = Problem(16, 1.0, 0.01).op
        stacked = tikhonov_stack(op, 0.3)
        rng = np.random.default_rng(21)
        rhs = rng.standard_normal((4, 16, 16))
        cfg = dict(tol=1e-12, max_iters=10000)
        res = cg_regularized_normal(stacked, rhs, **cfg)
        assert res.converged
        loop = np.stack([cg_reference(stacked, col, **cfg).x for col in rhs])
        mat = to_dense(op)
        direct = np.linalg.solve(mat.T @ mat + 0.3 * np.eye(256),
                                 rhs.reshape(4, -1).T).T.reshape(rhs.shape)
        assert np.all(column_gaps(res.x, loop, direct) <= 1e-8)
        assert np.all(column_gaps(res.x, direct, direct) <= 1e-8)

    def test_zero_columns_return_zero(self):
        op = tikhonov_stack(make_rate_operator(seed=1)[0], 0.1)
        rhs = np.random.default_rng(22).standard_normal((4, 16, 16))
        rhs[[0, 2]] = 0.0
        cfg = dict(tol=1e-12, max_iters=10000)
        res = cg_regularized_normal(op, rhs, **cfg)
        assert res.converged and res.rel_residual <= 1e-12
        np.testing.assert_array_equal(res.x[[0, 2]], 0.0)
        pair = cg_regularized_normal(op, rhs[[1, 3]], **cfg)
        assert res.iters == pair.iters
        np.testing.assert_allclose(res.x[[1, 3]], pair.x, rtol=0,
                                   atol=1e-13)
        none = cg_regularized_normal(op, np.zeros((3, 16, 16)), **cfg)
        assert none.converged and none.iters == 0
        np.testing.assert_array_equal(none.x, 0.0)

    def test_unconverged_block_counts_columns(self):
        op = Problem(16, 1.0, 0.01).op
        rhs = np.random.default_rng(23).standard_normal((3, 16, 16))
        res = cg_regularized_normal(op, rhs, tol=1e-8, max_iters=1)
        assert not res.converged
        assert res.iters == 1 and res.unconverged == 3
        assert res.rel_residual > 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_unreachable_tolerance_returns_best_step(self, seed):
        # no residual reaches tol = 1e-300: the estimate bottoms out near
        # 4e-16 and the basis runs on to the rank, where the last
        # iterates carry kernel components of 4e2 to 1e4; the step of
        # smallest estimate is returned, with its space
        op, svd = make_rate_operator(s_min=1e-3, kernel_dim=32, seed=seed)
        z = np.random.default_rng(seed).standard_normal((16, 16))
        rhs = op.adjoint(op.apply(z))
        res = cg_regularized_normal(op, rhs,
                                    tol=1e-300, max_iters=20000)
        assert not res.converged and res.rel_residual <= 1e-15
        exact = z - svd_projector(svd)(z)
        again = _galerkin(rhs.reshape(1, -1), res.directions).reshape(z.shape)
        for x in (res.x, again):
            assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(z)

    def test_space_solves_other_right_hand_sides(self):
        # a space that spans the whole input space (full rank, lam > 0)
        # gives the exact solution for any right-hand side
        rng = np.random.default_rng(25)
        a = rng.standard_normal((16, 16))
        op = tikhonov_stack(dense_op(a, (4, 4), (4, 4)), 0.3)
        res = cg_regularized_normal(op, rng.standard_normal((4, 4, 4)),
                                    tol=1e-12, max_iters=10000)
        assert res.converged and res.directions.shape == (16, 16)
        rhs = rng.standard_normal((3, 16))
        direct = np.linalg.solve(a.T @ a + 0.3 * np.eye(16), rhs.T).T
        np.testing.assert_allclose(_galerkin(rhs, res.directions), direct,
                                   rtol=0, atol=1e-10)
        np.testing.assert_array_equal(_galerkin(0.0 * rhs, res.directions),
                                      0.0)

    @pytest.mark.parametrize("seed", [581, 1113, 1676])
    def test_rounding_noise_stays_out_of_the_basis(self, seed):
        # low-rank draws of the CG property test on which rounding noise
        # left by the reorthogonalisation passed the deflation floor
        # n eps |A*A| and entered the basis: a wrong answer marked
        # converged, one marked unconverged, and a basis of more than n rows
        meta = np.random.default_rng(10**6 + seed)
        m, n = meta.integers(1, 13), meta.integers(1, 13)
        r, k = meta.integers(0, min(m, n) + 1), meta.integers(0, 5)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (u[:, :r] * rng.uniform(0.1, 1.0, r)) @ v[:, :r].T
        z = rng.standard_normal((k, n))
        res = cg_regularized_normal(dense_op(a), z @ a.T @ a,
                                    tol=1e-12, max_iters=10000)
        want = z @ a.T @ np.linalg.pinv(a).T       # A+ A z, row by row
        assert res.converged
        assert np.all(column_gaps(res.x, want, z) <= 1e-12)
        p = iterative_projector(dense_op(a))(z)
        assert np.all(column_gaps(p, z - want, z) <= 1e-12)
        assert np.max(np.abs(p @ a.T)) <= 1e-12

    def test_basis_grows_past_its_first_rows(self):
        # one column starts a basis of min(n, 32 * 8) = 256 rows; this
        # spectrum takes about 500 steps, so the basis and its directions
        # are grown
        s = np.geomspace(1.0, 1e-3, 600)
        rhs = np.random.default_rng(0).standard_normal(600)
        res = cg_regularized_normal(dense_op(np.diag(s)), rhs, tol=1e-12,
                                    max_iters=10000)
        assert res.converged and res.iters > 256
        want = rhs / s**2
        assert np.linalg.norm(res.x - want) <= 1e-10 * np.linalg.norm(want)

    def test_stack_shapes_validated(self):
        op = make_cumsum(3, 3)
        for shape in [(3, 3, 2), (2, 3), (1, 1, 3, 3)]:
            with pytest.raises(ValueError):
                cg_regularized_normal(op, np.zeros(shape), tol=1e-8,
                                      max_iters=10000)


class TestStackedOperators:
    """Every operator maps a stack (k, h, w) as k images."""

    @pytest.mark.parametrize("make", [
        lambda: make_cumsum(5, 4, 0.5),
        lambda: Problem(16, 0.5, 0.01).op,
        lambda: dense_op(np.random.default_rng(0).standard_normal((12, 20)),
                         (5, 4), (3, 4)),
    ])
    def test_stack_is_images(self, make):
        op = make()
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3,) + op.in_shape)
        y = rng.standard_normal((3,) + op.out_shape)
        for stack, one, maps in ((x, op.in_shape, op.apply),
                                 (y, op.out_shape, op.adjoint)):
            out = maps(stack)
            assert out.shape[0] == 3
            for i in range(3):
                np.testing.assert_allclose(out[i], maps(stack[i]),
                                           rtol=0, atol=1e-13)

    def test_cumsum_stack_is_bit_exact(self):
        op = make_cumsum(7, 5, 0.25)
        x = np.random.default_rng(25).standard_normal((4, 7, 5))
        for maps in (op.apply, op.adjoint):
            out = maps(x)
            for i in range(4):
                np.testing.assert_array_equal(out[i], maps(x[i]))

    def test_stack_shape_validated(self):
        op = make_cumsum(3, 3)
        for shape in [(3, 4), (2, 3, 4), (1, 2, 3, 3)]:
            with pytest.raises(ValueError):
                op.apply(np.zeros(shape))


class TestDenseSvd:
    def test_identity(self):
        svd = dense_svd(np.eye(3))
        np.testing.assert_allclose(svd.s, np.ones(3))
        assert svd.rank == 3

    def test_rank_deficient_diag(self):
        svd = dense_svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(svd.s, [3.0, 0.0])
        assert svd.rank == 1

    @pytest.mark.parametrize("case", ["full", "deficient", "threshold",
                                      "zero", "empty"])
    def test_rank_matches_tolerance_rule(self, case):
        # the threshold case straddles s_max * 1e-12 * max(m, n) = 3e-12
        rng = np.random.default_rng(5)
        svd = {"full": lambda: dense_svd(rng.standard_normal((5, 4))),
               "deficient": lambda: dense_svd(
                   rng.standard_normal((6, 2)) @ rng.standard_normal((2, 3))),
               "threshold": lambda: SvdFactors(
                   np.eye(3), np.array([1.0, 3.1e-12, 2.9e-12]), np.eye(3),
                   (3,), (3,)),
               "zero": lambda: dense_svd(np.zeros((3, 2))),
               "empty": lambda: SvdFactors(np.zeros((3, 0)), np.zeros(0),
                                           np.zeros((2, 0)), (2,), (3,)),
               }[case]()
        assert svd.rank == rank_reference(svd) == {
            "full": 4, "deficient": 2, "threshold": 2, "zero": 0,
            "empty": 0}[case]

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

    def test_block_maps_match_columns(self):
        # a 10 x 12 matrix between (3, 4) images and (2, 5) data: each map
        # of a stack (k, *grid) maps its images one by one, and a stack's
        # coefficients are rows, so spectral weights broadcast on them
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((10, 12))
        svd = operator_svd(dense_op(mat, (3, 4), (2, 5)))
        xs = rng.standard_normal((3, 3, 4))
        ys = rng.standard_normal((3, 2, 5))
        coeffs, data = svd.coeffs(xs), svd.data_coeffs(ys)
        assert coeffs.shape == data.shape == (3, 10)
        ax = xs.reshape(3, 12) @ mat.T
        np.testing.assert_allclose(
            svd.data_image(coeffs, svd.s).reshape(3, 10), ax, atol=1e-12)
        # a wide matrix: the image of the coefficients is the row-space part
        np.testing.assert_allclose(svd.image(coeffs).reshape(3, 12) @ mat.T,
                                   ax, atol=1e-12)
        for j in range(3):
            np.testing.assert_allclose(svd.coeffs(xs[j]), coeffs[j],
                                       atol=1e-14)
            np.testing.assert_allclose(svd.coeffs(xs[j], 4), coeffs[j, :4],
                                       atol=1e-14)
            np.testing.assert_allclose(svd.data_coeffs(ys[j]), data[j],
                                       atol=1e-14)
            for maps, grid in ((svd.image, (3, 4)), (svd.data_image, (2, 5))):
                assert maps(coeffs[j], svd.s).shape == grid
                np.testing.assert_allclose(maps(coeffs[j], svd.s),
                                           maps(coeffs, svd.s)[j], atol=1e-14)
        # an (n, k) block of column images is no stack of either grid
        for maps, block in ((svd.coeffs, xs.reshape(3, 12).T),
                            (svd.data_coeffs, ys.reshape(3, 10).T)):
            with pytest.raises(ValueError):
                maps(block)

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


def test_cg_settings_validated():
    for tol, max_iters in [(0.0, 10), (-1e-8, 10), (1e-8, 0)]:
        with pytest.raises(ValueError,
                           match="need tol > 0 and max_iters >= 1"):
            cg_regularized_normal(make_cumsum(3, 3), np.ones((3, 3)),
                                  tol=tol, max_iters=max_iters)
