"""Matrix-free linear operators on 2D arrays, plus the small solvers (CG on
the normal equations, dense SVD / pseudo-inverse) used throughout the
package.

Images are plain float64 numpy arrays of shape (h, w).  Operators act on
images directly; flattening only happens inside dense wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    """Iterative solver settings; tol is a relative residual tolerance."""

    tol: float = 1e-8
    max_iters: int = 10000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class LinOp:
    """Linear operator between image spaces.

    Subclasses (or `MatvecOp` instances) provide `apply` and `adjoint`
    together with `in_shape` / `out_shape`.  Operators are immutable after
    construction and safe to share across threads.
    """

    in_shape: tuple[int, int]
    out_shape: tuple[int, int]

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def _check_in(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != self.in_shape:
            raise ValueError(
                f"expected input shape {self.in_shape}, got {x.shape}")
        return x

    def _check_out(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape != self.out_shape:
            raise ValueError(
                f"expected output shape {self.out_shape}, got {y.shape}")
        return y


class MatvecOp(LinOp):
    """LinOp built from a pair of callables."""

    def __init__(self, in_shape, out_shape, forward, backward):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._forward = forward
        self._backward = backward

    def apply(self, x):
        x = self._check_in(x)
        return self._forward(x)

    def adjoint(self, y):
        y = self._check_out(y)
        return self._backward(y)


def adjoint_check(op: LinOp, trials: int = 50, seed: int = 0) -> float:
    """Max relative defect of <A u, v> = <u, A* v> over random test pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.in_shape)
        v = rng.standard_normal(op.out_shape)
        au = op.apply(u)
        atv = op.adjoint(v)
        lhs = float(np.vdot(au, v))
        rhs = float(np.vdot(u, atv))
        scale = np.linalg.norm(au) * np.linalg.norm(v) + 1e-300
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass
class CgResult:
    x: np.ndarray
    converged: bool
    iters: int
    rel_residual: float


def cg_regularized_normal(op: LinOp, rhs: np.ndarray, lam: float,
                          cfg: SolverConfig) -> CgResult:
    """Conjugate gradients for (A*A + lam*I) x = rhs.

    `rhs` lives in the input space of `op` (typically A* y).  Each residual
    is reorthogonalised against all earlier ones (Meurant & Strakos, Acta
    Numerica 2006), so CG stops within n = rhs.size steps.  `iters` counts
    the steps taken; converged=False means it stopped short of tol.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != op.in_shape:
        raise ValueError(f"rhs shape {rhs.shape} != operator input "
                         f"shape {op.in_shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs has non-finite entries")

    def normal(v):
        out = op.adjoint(op.apply(v))
        if lam != 0.0:
            out = out + lam * v
        return out

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return CgResult(np.zeros(op.in_shape), True, 0, 0.0)
    x = np.zeros(op.in_shape)
    r = rhs.copy()
    p = r.copy()
    rs = float(np.vdot(r, r))
    n = r.size
    # rows = the normalised residuals so far; grown by doubling, never past n
    basis = np.empty((min(n, 16), n))
    k = 0
    while k < min(n, cfg.max_iters) and np.sqrt(rs) > cfg.tol * rhs_norm:
        if k == len(basis):
            basis = np.resize(basis, (min(2 * k, n), n))
        basis[k] = r.ravel() / np.sqrt(rs)
        ap = normal(p)
        denom = float(np.vdot(p, ap))
        if denom <= 0.0:
            # singular direction (lam = 0 on a rank-deficient operator)
            break
        a = rs / denom
        x = x + a * p
        r = r - a * ap
        k += 1
        q = basis[:k]
        r -= ((q @ r.ravel()) @ q).reshape(r.shape)
        rs_new = float(np.vdot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CgResult(x, bool(np.sqrt(rs) <= cfg.tol * rhs_norm), k,
                    np.sqrt(rs) / rhs_norm)


@dataclass
class SvdFactors:
    """Dense SVD of a small operator: matrix = u @ diag(s) @ v.T.

    Columns of u and v are orthonormal; s is nonincreasing and nonnegative.
    in_shape/out_shape record the image grids of the operator the matrix was
    densified from ((n,) and (m,) for a bare m x n matrix).  The maps take an
    image, or a block: a 2D array of another shape, one image per column.
    A block's coefficients are rows, so spectral weights broadcast on them.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank_tol: float
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]

    @property
    def rank(self) -> int:
        return int(np.sum(self.s > self.rank_tol))

    def matrix(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T

    def coeffs(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """vec(x).T v over the first k (default all) columns of v."""
        return _vec(x, self.in_shape).T @ self.v[:, :k]

    def data_coeffs(self, y: np.ndarray, k: int | None = None) -> np.ndarray:
        """vec(y).T u over the first k (default all) columns of u."""
        return _vec(y, self.out_shape).T @ self.u[:, :k]

    def image(self, c: np.ndarray, w=1.0) -> np.ndarray:
        """v diag(w) c over as many columns of v as c has coefficients."""
        x = self.v[:, :np.shape(c)[-1]] @ (w * c).T
        return x if x.ndim == 2 else x.reshape(self.in_shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x."""
        y = self.u @ (self.s * self.coeffs(x)).T
        return y if y.ndim == 2 else y.reshape(self.out_shape)


def _vec(x, grid) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 and x.shape != grid else x.ravel()


_SVD_DIM_LIMIT = 1024


def dense_svd(matrix: np.ndarray) -> SvdFactors:
    """Full SVD of a small dense matrix (desk-scale guard at 1024x1024),
    with rank_tol = s_max * 1e-12 * max(dims).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2D matrix")
    if max(matrix.shape) > _SVD_DIM_LIMIT:
        raise ValueError(f"matrix exceeds {_SVD_DIM_LIMIT} in one dimension")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank_tol = (s[0] if s.size else 0.0) * 1e-12 * max(matrix.shape)
    return SvdFactors(u=u, s=s, v=vt.T, rank_tol=float(rank_tol),
                      in_shape=matrix.shape[1:], out_shape=matrix.shape[:1])


def pseudo_inverse_apply(svd: SvdFactors, y: np.ndarray) -> np.ndarray:
    """Moore-Penrose solution: invert over the numerical range, drop the rest."""
    r = svd.rank
    return svd.image(svd.data_coeffs(y, r), 1.0 / svd.s[:r])
