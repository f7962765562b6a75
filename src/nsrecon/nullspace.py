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


def mask_projector(op: LinOp, mask_op: LinOp) -> NullProjector:
    return NullProjector(op.in_shape, lambda z: z - mask_op.apply(z))


def svd_projector(svd: SvdFactors) -> NullProjector:
    """Exact projector z - V_r V_r.T z with r = svd.rank.  It needs only the
    leading right singular vectors, so wide (thin-SVD) operators work too."""
    vr = svd.v[:, :svd.rank]
    return NullProjector(svd.in_shape or (vr.shape[0],),
                         lambda z: z - svd.image(vr.T @ z.ravel(), vr))


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
