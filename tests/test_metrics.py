"""MSE, PSNR and SSIM anchors."""

import math

import numpy as np
import pytest

from nsrecon.metrics import mse, psnr, ssim


class TestMse:
    def test_identical(self):
        x = np.random.default_rng(0).random((8, 8))
        assert mse(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros((4, 4))
        y = np.full((4, 4), 0.1)
        assert mse(x, y) == pytest.approx(0.01)

    def test_against_loop(self):
        rng = np.random.default_rng(1)
        x, y = rng.random((5, 5)), rng.random((5, 5))
        acc = 0.0
        for i in range(5):
            for j in range(5):
                acc += (x[i, j] - y[i, j]) ** 2
        assert abs(mse(x, y) - acc / 25) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPsnr:
    def test_twenty_db(self):
        x = np.zeros((10, 10))
        y = np.full((10, 10), 0.1)  # MSE 0.01
        assert psnr(x, y) == pytest.approx(20.0)

    def test_zero_db(self):
        x = np.zeros((10, 10))
        y = np.ones((10, 10))
        assert psnr(x, y) == pytest.approx(0.0)

    def test_data_range_offset(self):
        x = np.zeros((10, 10))
        y = np.full((10, 10), 0.1)
        gain = psnr(x, y, data_range=2.0) - psnr(x, y)
        assert gain == pytest.approx(10 * math.log10(4), abs=1e-12)

    def test_identical_is_inf(self):
        x = np.ones((4, 4))
        assert psnr(x, x) == math.inf


class TestSsim:
    def test_self_similarity_exact(self):
        x = np.random.default_rng(2).random((32, 32))
        assert ssim(x, x) == 1.0

    def test_constant_images_closed_form(self):
        x = np.zeros((32, 32))
        y = np.full((32, 32), 0.5)
        c1 = 0.01**2
        expected = (2 * 0.0 * 0.5 + c1) / (0.0 + 0.25 + c1)
        assert ssim(x, y) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.0004, abs=1e-5)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(3)
        x = rng.random((32, 32))
        noise = rng.standard_normal((32, 32))
        values = [ssim(x, x + eps * noise) for eps in (0.01, 0.05, 0.1)]
        assert values[0] > values[1] > values[2]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))  # smaller than window
