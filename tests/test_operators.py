"""Forward operators: cumulative sum, the stripe mask and operator of
`Problem`, and the dense wrappers."""

import numpy as np
import pytest

from nsrecon.experiments import Problem
from nsrecon.linops import adjoint_check
from nsrecon.operators import dense_op, make_cumsum, operator_svd, to_dense


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
        with pytest.raises(ValueError):
            make_cumsum(3, 3, spacing=0.0)


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
