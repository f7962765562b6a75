"""Forward operators: cumulative sum, stripe mask, the stripe operator and
the dense wrappers."""

import numpy as np
import pytest

from nsrecon.linops import adjoint_check
from nsrecon.operators import (StripeMaskSpec, dense_op, make_cumsum,
                               make_stripe_operator, operator_svd, to_dense)


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


class TestStripeMask:
    def test_single_stripe_columns(self):
        spec = StripeMaskSpec(image_width=8, k_range=(0,))
        assert spec.kept_columns() == (0, 1)  # one-based stripe {1, 2}
        _, support = make_stripe_operator(3, 8, spec)
        expected = np.zeros((3, 8))
        expected[:, :2] = 1.0
        np.testing.assert_array_equal(support, expected)

    def test_benchmark_eight_columns(self):
        spec = StripeMaskSpec(image_width=64)
        assert len(spec.kept_columns()) == 8
        assert spec.kept_columns() == (0, 1, 4, 5, 8, 9, 12, 13)

    def test_complement(self):
        spec = StripeMaskSpec(image_width=64, complement=True)
        kept = spec.kept_columns()
        assert len(kept) == 56
        assert not set(kept) & {0, 1, 4, 5, 8, 9, 12, 13}

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeMaskSpec(image_width=4).kept_columns()
        with pytest.raises(ValueError):
            StripeMaskSpec(image_width=8, k_range=()).kept_columns()
        with pytest.raises(ValueError):
            StripeMaskSpec(image_width=8, k_range=(-1,)).kept_columns()
        with pytest.raises(ValueError):
            make_stripe_operator(16, 16, StripeMaskSpec(image_width=24))


class TestCompose:
    """The stripe operator is the column mask after the integration."""

    def test_mask_commutes_with_cumsum(self):
        k = make_cumsum(16, 16, spacing=0.25)
        x = np.random.default_rng(3).standard_normal((16, 16))
        for complement in (False, True):
            spec = StripeMaskSpec(image_width=16, complement=complement)
            op, support = make_stripe_operator(16, 16, spec, spacing=0.25)
            np.testing.assert_array_equal(op.apply(x), support * k.apply(x))

    def test_adjoint_defect(self):
        op, _ = make_stripe_operator(16, 16)
        assert adjoint_check(op) < 1e-12


class TestDense:
    def test_identity_matrix(self):
        np.testing.assert_array_equal(
            to_dense(dense_op(np.eye(4), (2, 2), (2, 2))), np.eye(4))

    def test_cumsum_2x1(self):
        np.testing.assert_array_equal(to_dense(make_cumsum(2, 1)),
                                      np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_transpose_matches_adjoint(self):
        op, _ = make_stripe_operator(
            8, 8, StripeMaskSpec(image_width=8, k_range=(0, 1)))
        mat = to_dense(op)
        for j in range(64):
            e = np.zeros(64)
            e[j] = 1.0
            np.testing.assert_allclose(
                op.adjoint(e.reshape(8, 8)).ravel(), mat.T[:, j], atol=1e-14)

    def test_dense_op_roundtrip(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((16, 16))
        np.testing.assert_allclose(to_dense(dense_op(mat, (4, 4), (4, 4))),
                                   mat, atol=1e-14)

    def test_operator_svd_keeps_shapes(self):
        op, _ = make_stripe_operator(
            8, 8, StripeMaskSpec(image_width=8, k_range=(0, 1)))
        svd = operator_svd(op)
        assert svd.in_shape == (8, 8) and svd.out_shape == (8, 8)
        np.testing.assert_allclose(svd.matrix(), to_dense(op), atol=1e-12)

    def test_dense_op_shape_validation(self):
        with pytest.raises(ValueError):
            dense_op(np.eye(4), (3, 3), (2, 2))
