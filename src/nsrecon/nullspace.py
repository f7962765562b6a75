"""Orthogonal projectors onto the null space ker(A) of a forward operator.

They make the null-space network f = id + P_ker(A) o U of `nn.forward`: the
learned correction U then changes reconstructions only inside ker(A), which
leaves the measurement residual untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linops import (MatvecOp, SvdFactors, _check_stack, _galerkin,
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
    projector makes two matrix-matrix products and the iterative one
    solves all k columns in one block Krylov space, or in the one it
    built on an earlier call.

    P z reads and writes only the image columns (last axis) marked True in
    the read-only `columns`: a mask projector's columns holding a 0, all
    for the others.  See `nn.forward` for the band rule m + 2L <= w.
    """

    shape: tuple[int, ...]
    apply: ImageMap
    columns: np.ndarray

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return project_null(self, z)


def mask_projector(support: np.ndarray) -> NullProjector:
    """z - z * support: the kernel projector of a 0/1 mask, and of the mask
    after any per-column invertible map when the support is whole columns."""
    support = np.array(support, dtype=float)
    if not np.all((support == 0.0) | (support == 1.0)):
        raise ValueError("support must hold only 0 and 1")
    columns = (support == 0).reshape(-1, support.shape[-1]).any(axis=0)
    columns.flags.writeable = False
    return NullProjector(support.shape, lambda z: z - z * support, columns)


def svd_projector(svd: SvdFactors) -> NullProjector:
    """Exact projector z - V_r V_r.T z with r = svd.rank.  It needs only the
    leading right singular vectors, so wide (thin-SVD) operators work too."""
    r = svd.rank
    return NullProjector(svd.in_shape,
                         lambda z: z - svd.image(svd.coeffs(z, r)),
                         np.broadcast_to(True, svd.in_shape[-1:]))


_PROJECTOR_TOL = 1e-14
_PROJECTOR_MAX_ITERS = 20000


def iterative_projector(op: MatvecOp) -> NullProjector:
    """z - A+(A z) by block CG on the normal equations A*A x = A*A z: one
    solve for a whole stack.  Every answer x, reused or solved, must pass
    one test, |b_j - A*A x_j| <= tol |b_j| for each column of b = A*A z,
    with the residual formed explicitly (one more application of A*A to
    the stack), tol = _PROJECTOR_TOL.  A fresh answer that misses it is
    corrected once in its solve's directions P, x += P.T P (b - A*A x),
    and raises RuntimeError if it still misses.  The solver's verdict is
    not read: at the rank, its residual estimate can keep mass that
    deflation dropped (5e-14 against 6e-15 formed, 16x16 rate operator).

    The projector holds the conjugate directions of its last solve that
    passed (d x n floats, d <= rank A, for its lifetime; A never changes)
    and first tries the Galerkin solution in their span: once the span is
    range(A*), as after a solve of several generic columns, no further
    call solves.  Threads sharing a projector at worst repeat a solve.
    """
    n = int(np.prod(op.in_shape))
    held = [None]                      # directions of the last good solve

    def normal(x):
        return op.adjoint(op.apply(x))

    def misses(b, r):
        """|r_j| / |b_j| of each column of the residual r above tolerance."""
        r = np.linalg.norm(r.reshape(-1, n), axis=1)
        scale = np.linalg.norm(b.reshape(-1, n), axis=1)
        miss = r > _PROJECTOR_TOL * scale
        return r[miss] / scale[miss]

    def apply(z):
        b = normal(z)
        if held[0] is not None and np.all(np.isfinite(b)):
            x = _galerkin(b.reshape(-1, n), held[0]).reshape(b.shape)
            if misses(b, b - normal(x)).size == 0:
                return z - x
        res = cg_regularized_normal(op, b, tol=_PROJECTOR_TOL,
                                    max_iters=_PROJECTOR_MAX_ITERS)
        x = res.x
        r = b - normal(x)
        if misses(b, r).size:  # one correction in the solve's own span
            x = x + _galerkin(r.reshape(-1, n),
                              res.directions).reshape(b.shape)
            r = b - normal(x)
        worst = misses(b, r)
        if worst.size:
            raise RuntimeError(
                f"projector CG did not converge: {worst.size} of "
                f"{z.size // n} columns after {res.iters} block steps, "
                f"worst relative residual {worst.max():.3g}")
        held[0] = res.directions
        return z - x

    return NullProjector(op.in_shape, apply,
                         np.broadcast_to(True, op.in_shape[-1:]))


def project_null(proj: NullProjector, z: np.ndarray) -> np.ndarray:
    """Apply the null-space projection to an image or a stack (k, *shape)."""
    return proj.apply(_check_stack(z, proj.shape))
