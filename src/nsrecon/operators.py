"""Concrete forward operators: vertical cumulative sum, the stripe-masked
integration operator, and dense wrappers for oracle testing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import LinOp, MatvecOp, SvdFactors, dense_svd


def make_cumsum(h: int, w: int, spacing: float = 1.0) -> LinOp:
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


@dataclass(frozen=True)
class StripeMaskSpec:
    """Vertical-stripe subsampling: per k, the stripe covers the one-based
    columns {4k+1, 4k+2}, i.e. the array columns {4k, 4k+1}.  By default the
    stripes are the observed columns; with complement=True they are the
    removed ones and everything else is kept.
    """

    image_width: int
    k_range: tuple[int, ...] = (0, 1, 2, 3)
    complement: bool = False

    def kept_columns(self) -> tuple[int, ...]:
        cols = []
        for k in self.k_range:
            if k < 0:
                raise ValueError("k_range entries must be nonnegative")
            cols.extend([4 * k, 4 * k + 1])
        cols = sorted(set(cols))
        if not cols:
            raise ValueError("k_range must be nonempty")
        if cols[-1] >= self.image_width:
            raise ValueError(
                f"column {cols[-1]} out of range for width {self.image_width}")
        if self.complement:
            cols = [c for c in range(self.image_width) if c not in set(cols)]
            if not cols:
                raise ValueError("stripes cover the whole image")
        return tuple(cols)


def make_stripe_operator(h: int = 64, w: int = 64,
                         spec: StripeMaskSpec | None = None,
                         spacing: float = 1.0):
    """The stripe-masked integration operator A x = support * (L x), L the
    per-column integration `make_cumsum(h, w, spacing)`.

    Returns (A, support): support is the read-only 0/1 (h, w) array of the
    spec's kept columns, the observed entries of the data grid.
    """
    cumsum = make_cumsum(h, w, spacing)
    spec = spec or StripeMaskSpec(image_width=w)
    if spec.image_width != w:
        raise ValueError(f"spec width {spec.image_width} != image width {w}")
    support = np.zeros((h, w))
    support[:, list(spec.kept_columns())] = 1.0
    support.flags.writeable = False
    op = MatvecOp((h, w), (h, w), lambda x: cumsum.apply(x) * support,
                  lambda y: cumsum.adjoint(y * support))
    return op, support


_DENSE_DIM_LIMIT = 4096


def to_dense(op: LinOp) -> np.ndarray:
    """Densify a small operator column by column (row-major flattening)."""
    n = op.in_shape[0] * op.in_shape[1]
    m = op.out_shape[0] * op.out_shape[1]
    if max(n, m) > _DENSE_DIM_LIMIT:
        raise ValueError(f"operator exceeds dense limit {_DENSE_DIM_LIMIT}")
    mat = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        mat[:, j] = op.apply(e.reshape(op.in_shape)).ravel()
        e[j] = 0.0
    return mat


def dense_op(matrix: np.ndarray,
             in_shape: tuple[int, int] | None = None,
             out_shape: tuple[int, int] | None = None) -> LinOp:
    """Wrap a dense matrix as a LinOp on (optionally 2D) images; a stack of
    images is one matrix-matrix product."""
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    in_shape = in_shape or (n, 1)
    out_shape = out_shape or (m, 1)
    if in_shape[0] * in_shape[1] != n or out_shape[0] * out_shape[1] != m:
        raise ValueError("shapes inconsistent with matrix dimensions")
    return MatvecOp(
        in_shape, out_shape,
        lambda x: (x.reshape(-1, n) @ matrix.T).reshape(x.shape[:-2]
                                                        + out_shape),
        lambda y: (y.reshape(-1, m) @ matrix).reshape(y.shape[:-2]
                                                      + in_shape))


def operator_svd(op: LinOp) -> SvdFactors:
    """Dense SVD of a small operator, with image shapes recorded."""
    svd = dense_svd(to_dense(op))
    svd.in_shape = tuple(op.in_shape)
    svd.out_shape = tuple(op.out_shape)
    return svd
