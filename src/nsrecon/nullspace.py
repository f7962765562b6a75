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
    solves all k columns in one block Krylov space, or in the one it
    built on an earlier call.
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
    """z - A+(A z) by block CG on the normal equations A*A x = A*A z: one
    solve for a whole stack.  Raises RuntimeError when a column misses the
    solver's tolerance.

    The projector holds the Krylov space of its last solve (d x n floats,
    d <= rank A, for its lifetime; A never changes) and first tries the
    Galerkin solution in that space.  It keeps that solution when every
    column passes the solver's own test |b_j - A*A x_j| <= tol |b_j|, b =
    A*A z, with the residual formed explicitly (one more application of
    A*A to the stack): once the space spans range(A*), as a solve of
    several generic columns does, no further call solves.  Otherwise it
    solves afresh and holds the new space; a solve that raises keeps the
    old one.  Threads sharing a projector at worst repeat a solve.
    """
    solver = solver or SolverConfig(tol=1e-14, max_iters=20000)
    n = int(np.prod(op.in_shape))
    held = [None]                      # KrylovSpace of the last solve

    def normal(x):
        return op.adjoint(op.apply(x))

    def reuse(b):
        """The Galerkin solution in the held space if it passes, else None."""
        space = held[0]
        if space is None or not np.all(np.isfinite(b)):
            return None
        rows = b.reshape(-1, n)
        x = space.galerkin(rows).reshape(b.shape)
        r = (b - normal(x)).reshape(-1, n)
        passed = (np.linalg.norm(r, axis=1)
                  <= solver.tol * np.linalg.norm(rows, axis=1))
        return x if passed.all() else None

    def apply(z):
        b = normal(z)
        x = reuse(b)
        if x is None:
            res = cg_regularized_normal(op, b, solver)
            if not res.converged:
                raise RuntimeError(
                    f"projector CG did not converge: {res.unconverged} of "
                    f"{z.size // n} columns after {res.iters} block steps, "
                    f"worst relative residual {res.rel_residual:.3g}")
            held[0], x = res.space, res.x
        return z - x

    return NullProjector(op.in_shape, apply)


def project_null(proj: NullProjector, z: np.ndarray) -> np.ndarray:
    """Apply the null-space projection to an image or a stack (k, *shape)."""
    return proj.apply(_check_stack(z, proj.shape))
