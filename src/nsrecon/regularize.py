"""Spectral-filter regularization: Tikhonov, truncated SVD and Landweber
filters applied through a dense SVD, and the source condition with its
a-priori parameter choice rule for rate experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import SvdFactors

FILTER_KINDS = ("tikhonov", "tsvd", "landweber")

# Qualification constants (c1, c2) such that, for mu <= mu_max,
#   sup_lam lam^mu |1 - lam g_a(lam)| <= c1 * a^mu   and   |g_a| <= c2 / a.
# Tikhonov: |1 - lam g| = a/(lam+a), so lam^mu a/(lam+a) <= a^mu *
#   sup_t t^mu/(1+t) <= a^mu for mu <= 1; g <= 1/a.
# TSVD: residual factor is the indicator of lam < a, so lam^mu <= a^mu;
#   g <= 1/a.
# Landweber (N = 1/a unit steps, spectrum scaled into [0, 1]):
#   lam^mu (1-lam)^N <= (mu/e)^mu N^-mu <= a^mu; g(0+) = N = 1/a.
FILTER_QUALIFICATION = {
    "tikhonov": {"c1": 1.0, "c2": 1.0, "mu_max": 1.0},
    "tsvd": {"c1": 1.0, "c2": 1.0, "mu_max": np.inf},
    "landweber": {"c1": 1.0, "c2": 1.0, "mu_max": np.inf},
}


@dataclass(frozen=True)
class FilterSpec:
    """Regularizing filter g_alpha applied to the spectrum of A*A.

    For the landweber kind, alpha = 1/N where N is the number of unit-step
    iterations; the spectrum must be scaled into [0, 1] for that filter.
    """

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")


def filter_value(spec: FilterSpec, lam) -> np.ndarray | float:
    """Pointwise filter g_alpha(lam); accepts scalars or arrays."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lam must be nonnegative")
    a = spec.alpha
    if spec.kind == "tikhonov":
        out = 1.0 / (lam + a)
    elif spec.kind == "tsvd":
        out = np.where(lam >= a, 1.0 / np.maximum(lam, a), 0.0)
    else:  # landweber
        n = max(1, int(round(1.0 / a)))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(lam > 0, (1.0 - (1.0 - lam) ** n) / np.where(
                lam > 0, lam, 1.0), float(n))
    return out if out.ndim else float(out)


def filter_weights(spec: FilterSpec, s: np.ndarray) -> np.ndarray:
    """g_alpha(s^2) s: data coefficients to reconstruction coefficients."""
    return filter_value(spec, s**2) * s


def spectral_reconstruct(svd: SvdFactors, y: np.ndarray,
                         spec: FilterSpec) -> np.ndarray:
    """Filtered reconstruction sum_i g_a(s_i^2) s_i <y, u_i> v_i of an
    image or a block of data; raises ValueError on non-finite data."""
    if not np.all(np.isfinite(y)):
        raise ValueError("y has non-finite entries")
    return svd.image(svd.data_coeffs(y), filter_weights(spec, svd.s))


@dataclass(frozen=True)
class SourceCondition:
    """Smoothness class (A*A)^mu applied to the closed rho-ball."""

    mu: float
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.mu < np.inf and 0.0 < self.rho < np.inf):
            raise ValueError("need finite mu >= 0 and rho > 0")


def param_choice(delta: float, src: SourceCondition, c: float = 1.0) -> float:
    """A-priori rule alpha = c * (delta/rho)^(2/(2 mu + 1))."""
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    return c * (delta / src.rho) ** (2.0 / (2.0 * src.mu + 1.0))

