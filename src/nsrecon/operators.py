"""Concrete forward operators: vertical cumulative sum and dense wrappers
for oracle testing.  The stripe-masked integration operator built on the
cumulative sum is `experiments.Problem.op`."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .linops import MatvecOp, SvdFactors, dense_svd


def make_cumsum(h: int, w: int, spacing: float = 1.0) -> MatvecOp:
    """Per-column prefix sum (discrete vertical integration) of an image or
    a stack of images.

    The adjoint is the per-column suffix sum (transpose of the
    lower-triangular all-ones matrix).  `spacing` scales the sums by the
    grid step, turning the raw prefix sum into a Riemann sum.
    """
    if h < 1 or w < 1:
        raise ValueError("h and w must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    shape = (h, w)

    def forward(x):
        return spacing * np.cumsum(x, axis=-2)

    def backward(y):
        return spacing * np.cumsum(y[..., ::-1, :], axis=-2)[..., ::-1, :]

    return MatvecOp(shape, shape, forward, backward)


_DENSE_DIM_LIMIT = 4096


def to_dense(op: MatvecOp) -> np.ndarray:
    """Densify a small operator column by column (row-major flattening)."""
    n, m = int(np.prod(op.in_shape)), int(np.prod(op.out_shape))
    if max(n, m) > _DENSE_DIM_LIMIT:
        raise ValueError(f"operator exceeds dense limit {_DENSE_DIM_LIMIT}")
    mat = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        mat[:, j] = op.apply(e.reshape(op.in_shape)).ravel()
        e[j] = 0.0
    return mat


def dense_op(matrix: np.ndarray, in_shape: tuple[int, ...] | None = None,
             out_shape: tuple[int, ...] | None = None) -> MatvecOp:
    """Wrap a dense m x n matrix as a MatvecOp between grids of n and m pixels,
    (n,) and (m,) by default; a stack is one matrix-matrix product."""
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    in_shape, out_shape = tuple(in_shape or (n,)), tuple(out_shape or (m,))
    if np.prod(in_shape) != n or np.prod(out_shape) != m:
        raise ValueError("shapes inconsistent with matrix dimensions")
    return MatvecOp(
        in_shape, out_shape,
        lambda x: (x.reshape(-1, n) @ matrix.T).reshape(
            x.shape[:-len(in_shape)] + out_shape),
        lambda y: (y.reshape(-1, m) @ matrix).reshape(
            y.shape[:-len(out_shape)] + in_shape))


def operator_svd(op: MatvecOp) -> SvdFactors:
    """Dense SVD of a small operator, with its image grids."""
    return replace(dense_svd(to_dense(op)), in_shape=op.in_shape,
                   out_shape=op.out_shape)
