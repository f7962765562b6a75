"""Orthogonal projectors onto the null space ker(A) of a forward operator.

They make the null-space network f = id + P_ker(A) o U of `nn.forward`: the
learned correction U then changes reconstructions only inside ker(A), which
leaves the measurement residual untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linops import (LinOp, SolverConfig, SvdFactors, _check_stack,
                     cg_regularized_normal)

ImageMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NullProjector:
    """Orthogonal projection onto ker(A) for images of the given shape.

    `apply` is built by one of the factories below: `mask_projector`
    (closed form I - M for a stripe-masked operator), `svd_projector`
    (z - V_r V_r.T z for an operator with a dense SVD) or
    `iterative_projector` (z - A+(A z) by CG for a general operator).  It
    maps one image or a stack (k, *shape): the mask broadcasts, the SVD
    projector makes one matrix-matrix product and the iterative one
    solves all k columns in one block Krylov space.
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
    n = int(np.prod(svd.in_shape))

    def apply(z):
        cols = z.reshape(-1, n).T
        return (cols - svd.image(svd.coeffs(cols, r))).T.reshape(z.shape)

    return NullProjector(svd.in_shape, apply)


def iterative_projector(op: LinOp,
                        solver: SolverConfig | None = None) -> NullProjector:
    """z - A+(A z) by block CG on the normal equations at lam = 0: one
    solve for a whole stack.  Raises RuntimeError when a column misses the
    solver's tolerance."""
    solver = solver or SolverConfig(tol=1e-14, max_iters=20000)
    n = int(np.prod(op.in_shape))

    def apply(z):
        res = cg_regularized_normal(op, op.adjoint(op.apply(z)), 0.0, solver)
        if not res.converged:
            raise RuntimeError(
                f"projector CG did not converge: {res.unconverged} of "
                f"{z.size // n} columns after {res.iters} block steps, worst "
                f"relative residual {res.rel_residual:.3g}")
        return z - res.x

    return NullProjector(op.in_shape, apply)


def project_null(proj: NullProjector, z: np.ndarray) -> np.ndarray:
    """Apply the null-space projection to an image or a stack (k, *shape)."""
    return proj.apply(_check_stack(z, proj.shape))
