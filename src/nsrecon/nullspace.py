"""Orthogonal projectors onto the null space ker(A) of a forward operator.

They make the null-space network f = id + P_ker(A) o U of `nn.forward`: the
learned correction U then changes reconstructions only inside ker(A), which
leaves the measurement residual untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linops import LinOp, SolverConfig, SvdFactors, cg_regularized_normal

ImageMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NullProjector:
    """Orthogonal projection onto ker(A) for images of the given shape.

    `apply` is built by one of the factories below: `mask_projector`
    (closed form I - M for a stripe-masked operator), `svd_projector`
    (z - V_r V_r.T z for an operator with a dense SVD) or
    `iterative_projector` (z - A+(A z) by CG for a general operator).
    """

    shape: tuple[int, ...]
    apply: ImageMap

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return project_null(self, z)


def mask_projector(support: np.ndarray) -> NullProjector:
    """z - z * support: the kernel projector of a 0/1 mask, and of the mask
    after any per-column invertible map when the support is whole columns."""
    support = np.array(support, dtype=float)
    if not np.all((support == 0.0) | (support == 1.0)):
        raise ValueError("support must hold only 0 and 1")
    return NullProjector(support.shape, lambda z: z - z * support)


def svd_projector(svd: SvdFactors) -> NullProjector:
    """Exact projector z - V_r V_r.T z with r = svd.rank.  It needs only the
    leading right singular vectors, so wide (thin-SVD) operators work too."""
    r = svd.rank
    return NullProjector(svd.in_shape,
                         lambda z: z - svd.image(svd.coeffs(z, r)))


def iterative_projector(op: LinOp,
                        solver: SolverConfig | None = None) -> NullProjector:
    solver = solver or SolverConfig(tol=1e-14, max_iters=20000)

    def apply(z):
        # z - A+(A z), the minimal-norm solve done by CG with lam = 0
        rhs = op.adjoint(op.apply(z))
        res = cg_regularized_normal(op, rhs, 0.0, solver)
        if not res.converged:
            raise RuntimeError(
                f"projector CG did not converge in {res.iters} iterations")
        return z - res.x

    return NullProjector(op.in_shape, apply)


def project_null(proj: NullProjector, z: np.ndarray) -> np.ndarray:
    """Apply the null-space projection to an image."""
    z = np.asarray(z, dtype=float)
    if z.shape != proj.shape:
        raise ValueError(f"expected shape {proj.shape}, got {z.shape}")
    return proj.apply(z)
