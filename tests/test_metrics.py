"""MSE, PSNR and SSIM anchors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import nsrecon
from nsrecon import metrics
from nsrecon.metrics import mse, psnr, ssim


def ssim_reference(x, y):
    """SSIM from six full 2-D correlations with the outer-product window."""
    half = metrics.SSIM_WINDOW_SIZE // 2
    ax = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(ax**2) / (2 * metrics.SSIM_WINDOW_SIGMA**2))
    win = np.outer(g, g)
    win /= win.sum()

    def wmean(img):
        return ndimage.correlate(img, win, mode="constant", cval=0.0)

    weight = wmean(np.ones_like(x))  # border renormalization
    mu_x = wmean(x) / weight
    mu_y = wmean(y) / weight
    var_x = wmean(x * x) / weight - mu_x**2
    var_y = wmean(y * y) / weight - mu_y**2
    cov = wmean(x * y) / weight - mu_x * mu_y
    c1 = (metrics.SSIM_K1 * metrics.DATA_RANGE) ** 2
    c2 = (metrics.SSIM_K2 * metrics.DATA_RANGE) ** 2
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


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

    @pytest.mark.parametrize("shape", [(20,), (2, 20, 20)])
    def test_needs_2d_images(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            ssim(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(11, 11), (17, 40), (64, 64),
                                       (11, 200), (128, 96)])
    def test_matches_2d_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            x = rng.random(shape)
            y = np.clip(x + 0.2 * rng.standard_normal(shape), 0.0, 1.0)
            assert abs(ssim(x, y) - ssim_reference(x, y)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape", [(11, 11), (17, 40), (64, 64)])
    def test_stack_equals_single_calls_bit_for_bit(self, shape, k):
        # the truth's filtered terms are shared, but each image's products
        # and expressions keep the single call's order
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = rng.random(shape)
            ys = np.clip(x + 0.1 * rng.standard_normal((k, *shape)), 0, 1)
            got = ssim(x, ys)
            assert isinstance(got, np.ndarray) and got.shape == (k,)
            assert got.tolist() == [ssim(x, y) for y in ys]

    def test_one_image_returns_a_float(self):
        x = np.random.default_rng(8).random((16, 16))
        assert type(ssim(x, 0.5 * x)) is float

    @pytest.mark.parametrize("shape", [(3, 16, 17), (3, 17, 16), (16,),
                                       (2, 3, 16, 16)])
    def test_stack_of_other_images_raises(self, shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            ssim(np.zeros((16, 16)), np.zeros(shape))

    def test_window_cache_is_read_only_and_per_size(self):
        rng = np.random.default_rng(7)
        pairs = {shape: (rng.random(shape), rng.random(shape))
                 for shape in ((17, 40), (40, 17))}
        first = {shape: ssim(*xy) for shape, xy in pairs.items()}
        for n in (11, 17, 40, 64):
            win = metrics._window(n)
            assert win.shape == (n, n)
            assert not win.flags.writeable
            with pytest.raises(ValueError):
                win[0, 0] = 1.0
            assert metrics._window(n) is win
            np.testing.assert_allclose(win.sum(axis=1), 1.0,
                                       rtol=0, atol=1e-15)
            # before rescaling, row i is the zero-padded correlation's
            cut = ndimage.correlate1d(np.eye(n), metrics._TAPS, axis=0,
                                      mode="constant")
            np.testing.assert_allclose(win * cut.sum(axis=1)[:, None], cut,
                                       rtol=0, atol=1e-15)
        assert metrics._window(17) is not metrics._window(40)
        for shape, xy in pairs.items():  # both sizes are cached by now
            assert ssim(*xy) == first[shape]


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package, its CLI and SSIM run on
    # numpy alone
    code = ("import sys; import numpy as np; import nsrecon, nsrecon.cli; "
            "x = np.random.default_rng(0).random((32, 32)); "
            "assert nsrecon.ssim(x, x) == 1.0; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(nsrecon.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
