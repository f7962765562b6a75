"""Reconstruction quality metrics: MSE, PSNR, SSIM."""

from __future__ import annotations

import functools
import math

import numpy as np

DATA_RANGE = 1.0  # the images span [0, 1]: L of PSNR and of SSIM's constants


def mse(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.mean((x - y) ** 2))


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10 log10(DATA_RANGE^2 / MSE) in dB; +inf for identical images."""
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(DATA_RANGE**2 / err)


# the standard reference constants (Wang et al., IEEE TIP 13, 2004)
SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_AX = np.arange(SSIM_WINDOW_SIZE) - SSIM_WINDOW_SIZE // 2
_TAPS = np.exp(-(_AX**2) / (2 * SSIM_WINDOW_SIGMA**2))
_TAPS /= _TAPS.sum()  # the 2-D window is the outer product of these taps


@functools.lru_cache(maxsize=8)
def _window(n: int) -> np.ndarray:
    """(n, n) local mean along one axis: row i holds the taps centred on
    pixel i, cut at the image edge and rescaled to sum to one."""
    win = sum(t * np.eye(n, k=k) for k, t in zip(_AX, _TAPS))
    win /= win.sum(axis=1, keepdims=True)
    win.flags.writeable = False  # every caller of this size shares it
    return win


def ssim(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Mean structural similarity over pixel-centered Gaussian windows.

    y is one image (a float is returned) or a stack (k, *x.shape) scored
    against the one truth x (k values, each equal to the single-image
    call).  Borders use the in-image part of the window with weights
    renormalized to sum one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or min(x.shape) < SSIM_WINDOW_SIZE:
        raise ValueError(f"SSIM needs a window-sized 2-D image, got {x.shape}")
    if y.shape[-2:] != x.shape or y.ndim not in (2, 3):
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    wh, ww = _window(x.shape[0]), _window(x.shape[1])
    mu_x, xx = wh @ np.stack([x, x * x]) @ ww.T  # the truth's, filtered once
    mu_x2 = mu_x**2
    var_x, two_mu_x = xx - mu_x2, 2 * mu_x
    c1 = (SSIM_K1 * DATA_RANGE) ** 2
    c2 = (SSIM_K2 * DATA_RANGE) ** 2
    out = []
    for yi in y.reshape(-1, *x.shape):  # a product over all k ran slower
        mu_y, yy, xy = wh @ np.stack([yi, yi * yi, x * yi]) @ ww.T
        num = (two_mu_x * mu_y + c1) * (2 * (xy - mu_x * mu_y) + c2)
        den = (mu_x2 + mu_y**2 + c1) * (var_x + (yy - mu_y**2) + c2)
        out.append(float(np.mean(num / den)))
    return out[0] if y.ndim == 2 else np.array(out)
