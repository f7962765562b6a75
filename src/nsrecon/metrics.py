"""Reconstruction quality metrics: MSE, PSNR, SSIM."""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage


def mse(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.mean((x - y) ** 2))


def psnr(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """10 log10(L^2 / MSE) in dB; +inf for identical images."""
    if not data_range > 0:
        raise ValueError(f"data_range must be positive, got {data_range}")
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range**2 / err)


# the standard reference constants (Wang et al., IEEE TIP 13, 2004)
SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DATA_RANGE = 1.0
_AX = np.arange(SSIM_WINDOW_SIZE) - SSIM_WINDOW_SIZE // 2
_TAPS = np.exp(-(_AX**2) / (2 * SSIM_WINDOW_SIGMA**2))
_TAPS /= _TAPS.sum()  # the 2-D window is the outer product of these taps


def _wmean(img: np.ndarray) -> np.ndarray:
    rows = ndimage.correlate1d(img, _TAPS, axis=-2, mode="constant")
    return ndimage.correlate1d(rows, _TAPS, axis=-1, mode="constant")


@functools.lru_cache(maxsize=8)
def _border_weight(shape: tuple[int, int]) -> np.ndarray:
    weight = _wmean(np.ones(shape))  # in-image window mass per pixel
    weight.flags.writeable = False  # every caller of this shape shares it
    return weight


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean structural similarity over pixel-centered Gaussian windows.

    Borders use the in-image part of the window with weights renormalized
    to sum one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.ndim != 2 or min(x.shape) < SSIM_WINDOW_SIZE:
        raise ValueError(f"SSIM needs a window-sized 2-D image, got {x.shape}")
    mu_x, mu_y, xx, yy, xy = (_wmean(np.stack([x, y, x * x, y * y, x * y]))
                              / _border_weight(x.shape))
    var_x, var_y, cov = xx - mu_x**2, yy - mu_y**2, xy - mu_x * mu_y

    c1 = (SSIM_K1 * SSIM_DATA_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DATA_RANGE) ** 2
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))
