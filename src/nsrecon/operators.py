"""Concrete forward operators: vertical cumulative sum and dense wrappers
for oracle testing.  The stripe-masked integration operator built on the
cumulative sum is `experiments.Problem.op`."""

from __future__ import annotations

import numpy as np

from .linops import MatvecOp


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
