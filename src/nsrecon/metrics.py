"""Reconstruction quality metrics: MSE, PSNR, SSIM."""

from __future__ import annotations

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


def _gaussian_window() -> np.ndarray:
    half = SSIM_WINDOW_SIZE // 2
    ax = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(ax**2) / (2 * SSIM_WINDOW_SIGMA**2))
    win = np.outer(g, g)
    return win / win.sum()


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean structural similarity over pixel-centered Gaussian windows.

    Borders use the in-image part of the window with weights renormalized
    to sum one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    if min(x.shape) < SSIM_WINDOW_SIZE:
        raise ValueError("image smaller than the SSIM window")
    win = _gaussian_window()

    def wmean(img):
        return ndimage.correlate(img, win, mode="constant", cval=0.0)

    weight = wmean(np.ones_like(x))  # border renormalization
    mu_x = wmean(x) / weight
    mu_y = wmean(y) / weight
    var_x = wmean(x * x) / weight - mu_x**2
    var_y = wmean(y * y) / weight - mu_y**2
    cov = wmean(x * y) / weight - mu_x * mu_y

    c1 = (SSIM_K1 * SSIM_DATA_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DATA_RANGE) ** 2
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))
