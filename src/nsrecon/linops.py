"""Matrix-free linear operators on image grids, plus the small solvers (CG
on the normal equations, dense SVD / pseudo-inverse) used throughout the
package.

Images are float64 arrays of a grid, (h, w) or (n,) for a bare matrix, and
every map takes one image or a stack (k, *grid) of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_stack(x, shape) -> np.ndarray:
    """x as floats; ValueError unless it is one image of `shape` or a stack
    of them along one leading axis."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape and x.shape[1:] != shape:
        raise ValueError(f"expected shape {shape} or (k, *{shape}), "
                         f"got {x.shape}")
    return x


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


def adjoint_check(op: MatvecOp, trials: int = 50, seed: int = 0) -> float:
    """Max relative defect of <A u, v> = <u, A* v> over random test pairs,
    over |A u| |v| + |u| |A* v|: the scale of both products' rounding."""
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
        scale = (np.linalg.norm(au) * np.linalg.norm(v)
                 + np.linalg.norm(u) * np.linalg.norm(atv) + 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass(frozen=True)
class KrylovSpace:
    """A block Krylov space of A*A as `cg_regularized_normal` left it, kept
    as its conjugate directions: the rows P = L^-1 Q (d x n), Q the
    orthonormal basis and L the block Cholesky factor of T = Q A*A Q.T, so
    that P A*A P.T = I."""

    directions: np.ndarray

    def galerkin(self, rhs: np.ndarray) -> np.ndarray:
        """Rows x in the span whose residual A*A x - rhs is orthogonal to
        it, one per row of rhs (k x n):
        x = Q.T T^-1 Q rhs = P.T P rhs."""
        p = self.directions
        return (np.asarray(rhs, dtype=float) @ p.T) @ p


@dataclass
class CgResult:
    """x has the shape of the right-hand side; converged is True when every
    column met the tolerance, rel_residual is the worst column's and iters
    counts block steps.  space is the Krylov space x was taken from."""

    x: np.ndarray
    converged: bool
    iters: int
    rel_residual: float
    unconverged: int = 0  # columns above the tolerance
    space: KrylovSpace | None = None


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
    counts as converged.  `iters` counts block steps.  x and `space` are
    those of the step with the smallest worst-column estimate, which is
    the last step unless the tolerance is out of reach: past the
    attainable accuracy the basis runs on to the rank and the last
    iterates drift far from the solution; it makes at most max_iters >= 1
    steps.  Each step forward-substitutes its new block through the
    Cholesky factor, so the space holds the conjugate directions and x is
    `space.galerkin(rhs)`.  perfbench's
    tracer finds the projector's solve under this name.
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
        if len(w) == 1:                # one row: its norm
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
    space = KrylovSpace(dirs[:d].copy())
    res = np.sqrt(res2)
    failed = int(np.sum(res > tol))
    return CgResult(space.galerkin(rows).reshape(rhs.shape), failed == 0,
                    steps, float(res.max(initial=0.0)), failed, space)


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
    def rank_tol(self) -> float:
        """s_max * 1e-12 * max(m, n) for the m x n matrix."""
        s_max = self.s[0] if self.s.size else 0.0
        return float(s_max * 1e-12 * max(len(self.u), len(self.v)))

    @property
    def rank(self) -> int:
        return int(np.sum(self.s > self.rank_tol))

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


def dense_svd(matrix: np.ndarray) -> SvdFactors:
    """Full SVD of a small dense matrix (desk-scale guard at 1024x1024)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2D matrix")
    if max(matrix.shape) > _SVD_DIM_LIMIT:
        raise ValueError(f"matrix exceeds {_SVD_DIM_LIMIT} in one dimension")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return SvdFactors(u=u, s=s, v=vt.T, in_shape=matrix.shape[1:],
                      out_shape=matrix.shape[:1])


def pseudo_inverse_apply(svd: SvdFactors, y: np.ndarray) -> np.ndarray:
    """Moore-Penrose solution: invert over the numerical range, drop the rest."""
    r = svd.rank
    return svd.image(svd.data_coeffs(y, r), 1.0 / svd.s[:r])
