"""Linear operators on image grids (matrix-free, the per-column integration
among them, or wrapping a dense matrix), plus the small solvers (CG on the
normal equations, dense SVD / pseudo-inverse) used throughout the package.

Images are float64 arrays of a grid, (h, w) or (n,) for a bare matrix, and
every map takes one image or a stack (k, *grid) of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _check_stack(x, shape) -> np.ndarray:
    """x as floats; ValueError unless it is one image of `shape` or a stack
    of them along one leading axis."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape and x.shape[1:] != shape:
        raise ValueError(f"expected shape {shape} or (k, *{shape}), "
                         f"got {x.shape}")
    return x


def _finite_matrix(matrix) -> np.ndarray:
    """matrix as floats; ValueError unless it is 2-D and finite."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    return matrix


class MatvecOp:
    """Linear operator between image spaces, built from a pair of callables:
    `apply` and `adjoint` each take one image of `in_shape` / `out_shape`
    or a stack (k, *shape) of them.  Operators are immutable after
    construction and safe to share across threads."""

    def __init__(self, in_shape, out_shape, forward, backward):
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self._forward = forward
        self._backward = backward

    def apply(self, x):
        return self._forward(_check_stack(x, self.in_shape))

    def adjoint(self, y):
        return self._backward(_check_stack(y, self.out_shape))


def make_cumsum(h: int, w: int, spacing: float = 1.0) -> MatvecOp:
    """Per-column prefix sum (discrete vertical integration) of an image or
    a stack of images.

    The adjoint is the per-column suffix sum (transpose of the
    lower-triangular all-ones matrix).  `spacing` scales the sums by the
    grid step, turning the raw prefix sum into a Riemann sum;
    `experiments.Problem.op` masks it to the stripe operator.
    """
    if h < 1 or w < 1:
        raise ValueError("h and w must be >= 1")
    if not 0 < spacing < np.inf:
        raise ValueError("spacing must be finite and positive")
    shape = (h, w)

    def forward(x):
        return spacing * np.cumsum(x, axis=-2)

    def backward(y):
        return spacing * np.cumsum(y[..., ::-1, :], axis=-2)[..., ::-1, :]

    return MatvecOp(shape, shape, forward, backward)


def dense_op(matrix: np.ndarray, in_shape: tuple[int, ...] | None = None,
             out_shape: tuple[int, ...] | None = None) -> MatvecOp:
    """Wrap a finite 2-D m x n matrix as a MatvecOp between grids of n and
    m pixels, (n,) and (m,) by default; a stack is one matrix product."""
    matrix = _finite_matrix(matrix)
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


def adjoint_check(op: MatvecOp, trials: int = 50, seed: int = 0) -> float:
    """Max relative defect of <A u, v> = <u, A* v> over random test pairs,
    over |A u| |v| + |u| |A* v|: the scale of both products' rounding.
    Pair t is row t of one (trials, n + m) normal draw, u then v; the
    pairs go through one stacked apply and one stacked adjoint."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, m = int(np.prod(op.in_shape)), int(np.prod(op.out_shape))
    uv = np.random.default_rng(seed).standard_normal((trials, n + m))
    u, v = uv[:, :n], uv[:, n:]
    au = op.apply(u.reshape((trials,) + op.in_shape)).reshape(trials, m)
    atv = op.adjoint(v.reshape((trials,) + op.out_shape)).reshape(trials, n)
    norm = np.linalg.norm
    scale = (norm(au, axis=1) * norm(v, axis=1)
             + norm(u, axis=1) * norm(atv, axis=1) + 1e-300)
    return float(np.max(np.abs(np.sum(au * v, axis=1)
                               - np.sum(u * atv, axis=1)) / scale))


def _galerkin(rhs: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Rows x in the span of the conjugate directions P (d x n) whose
    residual A*A x - rhs is orthogonal to it, one per row of rhs (k x n):
    x = Q.T T^-1 Q rhs = P.T P rhs."""
    return (rhs @ directions.T) @ directions


@dataclass
class CgResult:
    """x has the shape of the right-hand side; converged is True when every
    column met the tolerance, rel_residual is the worst column's and iters
    counts block steps.  directions holds the rows P = L^-1 Q (d x n) of
    the block Krylov space x was taken from, Q its orthonormal basis and L
    the block Cholesky factor of T = Q A*A Q.T, so that P A*A P.T = I."""

    x: np.ndarray
    converged: bool
    iters: int
    rel_residual: float
    unconverged: int = 0  # columns above the tolerance
    directions: np.ndarray | None = None


def cg_regularized_normal(op: MatvecOp, rhs: np.ndarray, *, tol: float,
                          max_iters: int) -> CgResult:
    """Block conjugate gradients for the normal equations A*A x = rhs.

    `rhs` is one image of the input space of `op` (the projector's A*A z)
    or a stack (k, *op.in_shape); a single image is a block of one.  All k
    columns are solved in one block Krylov space (O'Leary, Linear Algebra
    Appl. 29, 1980): block Lanczos, whose new block is orthogonalised by
    the three-term recurrence and then once more against the whole basis,
    and a Galerkin solve on the block tridiagonal T = Q A*A Q.T by a
    Cholesky factor that grows one block per step.  Each new block is
    rank-deflated at n eps max(|A*A|, 100 |A*A V_j|), above the rounding
    noise left by reorthogonalisation, and each Schur block at n eps |A*A|
    (numpy's matrix_rank rule): the kernel of A never enters the basis,
    which so stops at the rank.  Column j has converged when
    |r_j| <= tol * |rhs_j| (tol > 0), read from the Lanczos identity
    r = -V_next C Y_last without forming r; a zero column returns 0 and
    counts as converged.  `iters` counts block steps.  x and `directions`
    are those of the step with the smallest worst-column estimate, which is
    the last step unless the tolerance is out of reach: past the
    attainable accuracy the basis runs on to the rank and the last
    iterates drift far from the solution; it makes at most max_iters >= 1
    steps.  Each step forward-substitutes its new block through the
    Cholesky factor into the conjugate directions, and x is their Galerkin
    product P.T P rhs.  perfbench's tracer finds the projector's solve
    under this name.
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError(f"need tol > 0 and max_iters >= 1, got {tol}, "
                         f"{max_iters}")
    rhs = _check_stack(rhs, op.in_shape)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs has non-finite entries")
    n = int(np.prod(op.in_shape))
    rows = rhs.reshape(-1, n)          # one row per column of the block
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0.0
    b = rows[live] / norms[live, None]
    k = len(b)
    stack = (-1,) + op.in_shape

    def normal(v):
        return op.adjoint(op.apply(v.reshape(stack))).reshape(v.shape)

    def orth(w, floor):
        """(C, V): orthonormal rows V with w = C.T V, up to singular values
        at or below floor."""
        if len(w) == 1:  # with eigh's 1x1: rate_study NSN 15-17 ms, not 21-32
            sv = np.sqrt(w @ w.T)
            return (sv, w / sv) if sv > floor else (sv[:0], w[:0])
        u, sv, vt = np.linalg.svd(w.T, full_matrices=False)
        m = np.count_nonzero(sv > floor)
        return sv[:m, None] * vt[:m], u[:, :m].T

    def eigh(s):
        """Ascending eigenvalues and eigenvectors of a symmetric block; a
        1x1 block is its own eigenbasis (None)."""
        return (s[0], None) if len(s) == 1 else np.linalg.eigh(s)

    rank_eps = n * np.finfo(float).eps
    scale = 0.0                        # running estimate of |A*A|
    basis = np.empty((min(n, 32 * max(k, 8)), n))   # rows, grown by doubling
    dirs = np.empty_like(basis)        # rows of L^-1 basis
    d = d_prev = steps = 0
    v = orth(b, rank_eps)[1] if k else b
    sub = None
    # worst and all squared relative residuals, and basis rows, of the
    # best step
    best = (1.0, np.ones(k), 0)
    while len(v) and steps < max_iters:
        w = normal(v)
        size = np.linalg.norm(w)       # |A*A V_j|, before any cancellation
        if d + len(v) > len(basis):
            grown = (min(2 * (d + len(v)), n), n)
            basis, dirs = np.resize(basis, grown), np.resize(dirs, grown)
        basis[d:d + len(v)] = v
        # the three-term block recurrence: project out this block and the
        # last; the coefficients on this block are T_jj
        near = basis[d_prev:d + len(v)]
        h = w @ near.T
        w -= h @ near
        t = h[:, d - d_prev:]          # eigh reads its lower triangle
        if sub is not None:
            t = t - sub @ sub.T        # Schur block of the Cholesky factor
        energy, e = eigh(t)
        scale = max(scale, energy[-1])
        j = energy.searchsorted(rank_eps * scale, "right")
        if j == len(energy):
            break
        energy = energy[j:, None]
        if e is not None:              # rotate onto the kept eigenvectors,
            e = e[:, j:].T             # so that L_jj = diag(sqrt(energy))
            v, w = e @ v, e @ w
            basis[d:d + len(v)] = v
            if sub is not None:
                sub, g = e @ sub, e @ g
        if sub is None:
            r0 = v @ b.T
            lost = ((b - r0.T @ v) ** 2).sum(axis=1)   # rhs outside V_1
            y = r0 / energy
        else:
            y = g / -energy
        ld = np.sqrt(energy)
        # forward substitution with L_jj = diag(ld), L_{j,j-1} = sub
        p = v if sub is None else v - sub @ dirs[d_prev:d]
        dirs[d:d + len(v)] = p / ld
        steps += 1
        d_prev, d = d, d + len(v)
        q = basis[:d]
        w -= (w @ q.T) @ q             # full reorthogonalisation
        c, v = orth(w, rank_eps * max(scale, 100.0 * size))
        g = c @ y                      # C Y_last: the Galerkin residual
        res2 = (g * g).sum(axis=0) + lost
        worst = res2.max()
        if worst <= best[0]:
            best = (worst, res2, d)
        if worst <= tol ** 2:
            break
        sub = c / ld.T
    _, res2, d = best
    directions = dirs[:d].copy()
    res = np.sqrt(res2)
    failed = int(np.sum(res > tol))
    return CgResult(_galerkin(rows, directions).reshape(rhs.shape),
                    failed == 0, steps, float(res.max(initial=0.0)), failed,
                    directions)


@dataclass
class SvdFactors:
    """Dense SVD of a small operator: matrix = u @ diag(s) @ v.T.

    Columns of u and v are orthonormal; s is nonincreasing and nonnegative.
    in_shape/out_shape are the image grids of the operator the matrix was
    densified from ((n,) and (m,) for a bare m x n matrix).  The maps take
    one image or a stack (k, *grid) to (p,) or (k, p) coefficients, and
    back; spectral weights broadcast on the coefficients' last axis.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]

    @property
    def rank(self) -> int:
        """The number of singular values above s_max * 1e-12 * max(m, n)
        for the m x n matrix."""
        tol = self.s.max(initial=0.0) * 1e-12 * max(len(self.u), len(self.v))
        return int(np.sum(self.s > tol))

    def matrix(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T

    def coeffs(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """<x, v_i> for the first k (default all) columns of v."""
        return _pixels(x, self.in_shape) @ self.v[:, :k]

    def data_coeffs(self, y: np.ndarray, k: int | None = None) -> np.ndarray:
        """<y, u_i> for the first k (default all) columns of u."""
        return _pixels(y, self.out_shape) @ self.u[:, :k]

    def image(self, c: np.ndarray, w=1.0) -> np.ndarray:
        """sum_i w_i c_i v_i over the first c.shape[-1] columns of v."""
        return _grid(np.multiply(w, c), self.v, self.in_shape)

    def data_image(self, c: np.ndarray, w=1.0) -> np.ndarray:
        """sum_i w_i c_i u_i over the first c.shape[-1] columns of u."""
        return _grid(np.multiply(w, c), self.u, self.out_shape)


def _pixels(x, grid) -> np.ndarray:
    x = _check_stack(x, grid)
    return x.reshape(x.shape[:-len(grid)] + (int(np.prod(grid)),))


def _grid(c, basis, grid) -> np.ndarray:
    """(p,) or (k, p) coefficients on the leading basis columns, gridded."""
    return (c @ basis[:, :c.shape[-1]].T).reshape(c.shape[:-1] + grid)


_SVD_DIM_LIMIT = 1024


def to_dense(op: MatvecOp) -> np.ndarray:
    """The m x n matrix of a small operator (both grids flattened row-major)
    by one apply on the stack of the n unit images, under dense_svd's guard."""
    n, m = int(np.prod(op.in_shape)), int(np.prod(op.out_shape))
    if max(m, n) > _SVD_DIM_LIMIT:
        raise ValueError(f"operator exceeds {_SVD_DIM_LIMIT} in one dimension")
    return op.apply(np.eye(n).reshape((n,) + op.in_shape)).reshape(n, m).T


def dense_svd(matrix: np.ndarray) -> SvdFactors:
    """Full SVD of a small dense matrix (desk-scale guard at 1024x1024)."""
    matrix = _finite_matrix(matrix)
    if max(matrix.shape) > _SVD_DIM_LIMIT:
        raise ValueError(f"matrix exceeds {_SVD_DIM_LIMIT} in one dimension")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return SvdFactors(u=u, s=s, v=vt.T, in_shape=matrix.shape[1:],
                      out_shape=matrix.shape[:1])


def operator_svd(op: MatvecOp) -> SvdFactors:
    """Dense SVD of a small operator, with its image grids."""
    return replace(dense_svd(to_dense(op)), in_shape=op.in_shape,
                   out_shape=op.out_shape)


def pseudo_inverse_apply(svd: SvdFactors, y: np.ndarray) -> np.ndarray:
    """Moore-Penrose solution: invert over the numerical range, drop the rest."""
    r = svd.rank
    return svd.image(svd.data_coeffs(y, r), 1.0 / svd.s[:r])
