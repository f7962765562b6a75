"""Loop oracles shared by the test modules."""

import numpy as np

from nsrecon import nn
from nsrecon.experiments import ConvergenceReport, fit_loglog_slope
from nsrecon.linops import CgResult, MatvecOp, make_cumsum, to_dense
from nsrecon.regularize import FilterSpec, param_choice, spectral_reconstruct


def cg_reference(op, rhs, *, tol, max_iters):
    """Single-vector conjugate gradients for A*A x = rhs, each residual
    reorthogonalised against all earlier ones, so that CG stops within
    n = rhs.size steps; the column-by-column solver that the block solver
    of `linops.cg_regularized_normal` replaced."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != op.in_shape:
        raise ValueError(f"rhs shape {rhs.shape} != operator input "
                         f"shape {op.in_shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs has non-finite entries")

    def normal(v):
        return op.adjoint(op.apply(v))

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
    while k < min(n, max_iters) and np.sqrt(rs) > tol * rhs_norm:
        if k == len(basis):
            basis = np.resize(basis, (min(2 * k, n), n))
        basis[k] = r.ravel() / np.sqrt(rs)
        ap = normal(p)
        denom = float(np.vdot(p, ap))
        if denom <= 0.0:
            # singular direction (a rank-deficient operator)
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
    return CgResult(x, bool(np.sqrt(rs) <= tol * rhs_norm), k,
                    np.sqrt(rs) / rhs_norm)


def to_dense_reference(op):
    """The matrix of an operator column by column, one apply per unit
    image; the loop that `linops.to_dense` replaced."""
    n, m = int(np.prod(op.in_shape)), int(np.prod(op.out_shape))
    mat = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        mat[:, j] = op.apply(e.reshape(op.in_shape)).ravel()
        e[j] = 0.0
    return mat


def tikhonov_matrix_reference(problem):
    """R = (L^T L + alpha I)^-1 L^T of `Problem.reconstruct`, with L the
    dense form of the h x 1 cumulative sum instead of its closed form."""
    h = problem.image_size
    lmat = to_dense(make_cumsum(h, 1, problem.spacing))
    return np.linalg.solve(lmat.T @ lmat + problem.alpha * np.eye(h), lmat.T)


def adjoint_check_reference(op, trials=50, seed=0):
    """`linops.adjoint_check` pair by pair: u then v drawn from one
    generator, one apply and one adjoint per pair."""
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


def rank_reference(svd):
    """The singular values above s[0] * 1e-12 * max(m, n), read through the
    derived tolerance that `SvdFactors.rank` folded in."""
    s_max = svd.s[0] if svd.s.size else 0.0
    tol = float(s_max * 1e-12 * max(len(svd.u), len(svd.v)))
    return int(np.sum(svd.s > tol))


def tikhonov_stack(op, lam):
    """The operator [A; sqrt(lam) I], the identity block stacked below A's
    output rows: its normal operator is A*A + lam I, so CG on its normal
    equations solves Tikhonov's."""
    h, w = op.out_shape
    if w != op.in_shape[1]:
        raise ValueError("A must keep the image width")
    r = np.sqrt(lam)
    return MatvecOp(op.in_shape, (h + op.in_shape[0], w),
                    lambda x: np.concatenate([op.apply(x), r * x], axis=-2),
                    lambda y: op.adjoint(y[..., :h, :]) + r * y[..., h:, :])


def source_element(svd, src, seed=0):
    """Element of (A*A)^mu applied to the rho-sphere: x = (A*A)^mu w with a
    random direction w of norm rho drawn from the seed."""
    if not np.any(svd.s > 0):
        raise ValueError("operator has no positive singular value")
    w = np.random.default_rng(seed).standard_normal(svd.in_shape)
    w *= src.rho / np.linalg.norm(w)
    if src.mu > 0:
        w = svd.image(svd.coeffs(w), svd.s ** (2.0 * src.mu))
    return w


def conv(x, kernel, bias):
    """3x3 circular convolution of x (in_ch, h, w) plus bias: the valid
    convolution of x extended by one column each side, read mod w."""
    w = x.shape[-1]
    return valid_conv(x[..., (np.arange(w + 2) - 1) % w], kernel, bias)


def valid_conv(x, kernel, bias):
    """3x3 convolution of x (in_ch, h, w + 2), circular in rows and valid in
    columns, plus bias: (out_ch, h, w) by the network's row-shift GEMMs,
    slack columns dropped."""
    h, w = x.shape[-2], x.shape[-1] - 2
    out = nn._conv_rows(nn._row_shifts(x), kernel, h, w)
    return out[..., :w] + bias[:, None, None]


def forward_reference(params, x, projector=None):
    """x + U(x), or x + P(U(x)) with a projector, for one (h, w) image: U
    is the stack of 3x3 circular convolutions with ReLU between layers,
    each tap an np.roll of the layer input."""
    a, last = x[None, :, :], len(params.kernels) - 1
    for l, (k, b) in enumerate(zip(params.kernels, params.biases)):
        z = sum(np.einsum("oc,chw->ohw", k[:, :, di, dj],
                          np.roll(a, (1 - di, 1 - dj), axis=(1, 2)))
                for di in range(3) for dj in range(3)) + b[:, None, None]
        a = np.maximum(z, 0.0) if l < last else z
    return x + (a[0] if projector is None else projector(a[0]))


def conv_reference(x, kernel, bias):
    """Direct six-loop circular convolution for oracle comparison."""
    out_ch, in_ch = kernel.shape[:2]
    h, w = x.shape[1:]
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for c in range(in_ch):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for di in range(3):
                        for dj in range(3):
                            acc += kernel[o, c, di, dj] * \
                                x[c, (i + di - 1) % h, (j + dj - 1) % w]
                    out[o, i, j] += acc
        out[o] += bias[o]
    return out


def kernel_grad_reference(g, x):
    """Kernel gradient of a 3x3 circular convolution of x (in_ch, h, w)
    whose output receives the loss gradient g (out_ch, h, w):
    sum_ij g[o,i,j] x[c,(i+di-1)%h,(j+dj-1)%w], by explicit indices."""
    h, w = x.shape[1:]
    out = np.zeros((g.shape[0], x.shape[0], 3, 3))
    for di in range(3):
        for dj in range(3):
            rows = (np.arange(h)[:, None] + di - 1) % h
            cols = (np.arange(w)[None, :] + dj - 1) % w
            out[:, :, di, dj] = np.einsum("oij,cij->oc", g, x[:, rows, cols])
    return out


def polar_gaussian_reference(rng, n):
    """Marsaglia polar method that transforms every accepted pair and keeps
    the first n draws of u * factor followed by v * factor."""
    out = np.empty(n)
    have = 0
    while have < n:
        u = rng.uniform(-1.0, 1.0, size=2 * (n - have))
        v = rng.uniform(-1.0, 1.0, size=2 * (n - have))
        s = u * u + v * v
        ok = (s > 0) & (s < 1)
        u, v, s = u[ok], v[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        draws = np.concatenate([u * factor, v * factor])
        take = min(n - have, draws.size)
        out[have:have + take] = draws[:take]
        have += take
    return out


def backward_reference(params, x, grad_out, projector=None):
    """Gradients of nn.forward on the whole circle by a loop on its
    context, x extended circularly by L columns each side for L layers.
    The loop keeps each layer's input and float pre-activation, rebuilds
    the layer input's row-shift matrix, zero-pads the gradient into the
    row-shift layout at every layer and stops after layer 0's parameter
    gradients.  Returns (kernel grads, bias grads)."""
    w, layers = x.shape[1], len(params.kernels)
    ctx, last = (np.arange(w + 2 * layers) - layers) % w, layers - 1
    a, inputs, preacts = x[None, :, ctx], [], []
    for l, (k, b) in enumerate(zip(params.kernels, params.biases)):
        inputs.append(a)
        z = valid_conv(a, k, b)
        preacts.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    g = grad_out if projector is None else projector(grad_out)
    g = g[None, :, :]
    grad_k, grad_b = [None] * len(inputs), [None] * len(inputs)
    for l in range(last, -1, -1):
        k = params.kernels[l]
        g_ext = np.zeros(g.shape[:2] + (g.shape[2] + 2,))
        g_ext[:, :, :-2] = g
        g_ext = g_ext.reshape(len(g), -1)
        rows = nn._row_shifts(inputs[l])
        grad_k[l] = np.stack([g_ext @ rows[:, dj:dj + g_ext.shape[1]].T
                              for dj in range(3)], axis=-1).reshape(k.shape)
        grad_b[l] = g.sum(axis=(1, 2))
        if l == 0:
            break
        g = valid_conv(np.pad(g, ((0, 0), (0, 0), (2, 2))),
                       k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                       np.zeros(k.shape[1]))
        g = g * (preacts[l - 1] > 0)
    return grad_k, grad_b


def adam_step_reference(params, grads, moments, step, lr, weight_decay):
    """One Adam update with coupled L2 weight decay, array by array:
    moments holds (m, v) per array of kernels + biases, step is the step
    count after this update.  Returns (new params, new moments)."""
    new_p, new_moments = [], []
    for p, g, (m, v) in zip(params.kernels + params.biases,
                            grads.kernels + grads.biases, moments):
        g = g + weight_decay * p
        m = nn.ADAM_BETA1 * m + (1 - nn.ADAM_BETA1) * g
        v = nn.ADAM_BETA2 * v + (1 - nn.ADAM_BETA2) * g * g
        m_hat = m / (1 - nn.ADAM_BETA1**step)
        v_hat = v / (1 - nn.ADAM_BETA2**step)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS))
        new_moments.append((m, v))
    n = len(params.kernels)
    return nn.NetParams(new_p[:n], new_p[n:]), new_moments


def layer_norm_reference(kernel, shape):
    """Operator norm of the bias-free 3x3 circular convolution on an h x w
    grid: the largest spectral norm of its out x in symbol over the full
    DFT spectrum, the symbol summed tap by tap."""
    h, w = shape
    f1 = np.arange(h)[:, None, None, None]
    f2 = np.arange(w)[None, :, None, None]
    symbol = sum(kernel[:, :, di, dj]
                 * np.exp(-2j * np.pi * (f1 * di / h + f2 * dj / w))
                 for di in range(3) for dj in range(3))
    return float(np.linalg.norm(symbol, 2, axis=(-2, -1)).max())


def grad_check(arch: nn.Architecture, seed: int = 0, eps: float = 1e-5,
               shape: tuple[int, int] = (8, 8),
               projector=None) -> float:
    """Backprop vs central finite differences on the loss |f(x) - t|^2.

    Every parameter entry is perturbed.  The error is measured per
    parameter array as |analytic - numeric|_inf / |gradient|_inf (entrywise
    ratios on near-zero gradients only probe finite-difference roundoff);
    returns the max over arrays.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max(shape) > 16:
        raise ValueError("grad_check is meant for small inputs (<= 16x16)")
    rng = np.random.default_rng(seed)
    params = nn.init_params(arch, seed)
    x = rng.standard_normal(shape)
    t = rng.standard_normal(shape)

    def loss(p):
        out, _ = nn.forward(p, x, projector)
        return float(np.sum((out - t) ** 2))

    out, cache = nn.forward(params, x, projector, {})
    grads, _ = nn.backward(params, cache, 2.0 * (out - t))

    worst = 0.0
    arrays = list(zip(params.kernels + params.biases,
                      grads.kernels + grads.biases))
    for arr, g_arr in arrays:
        numeric = np.zeros_like(g_arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss(params)
            arr[idx] = orig - eps
            lm = loss(params)
            arr[idx] = orig
            numeric[idx] = (lp - lm) / (2 * eps)
        scale = max(np.max(np.abs(g_arr)), np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, float(np.max(np.abs(numeric - g_arr))) / scale)
    return worst


def _svd_forward(svd, x):
    return svd.u @ (svd.s * (svd.v.T @ x.ravel()))


def rate_study_reference(svd, filter_kind, src, deltas, trials, seed, c,
                         f=None):
    """The rate study trial by trial through image space: one source
    element, one noise draw, one filtered reconstruction and two forward
    products per trial.  Trial t at the i-th largest delta takes row
    i * trials + t of the source and noise blocks that the two children of
    SeedSequence(seed) draw."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    deltas = sorted(np.asarray(deltas, dtype=float), reverse=True)
    k = len(deltas) * trials
    w_seq, e_seq = np.random.SeedSequence(seed).spawn(2)
    w_block = np.random.default_rng(w_seq).standard_normal(
        (k, svd.v.shape[0]))
    e_block = np.random.default_rng(e_seq).standard_normal(
        (k, svd.u.shape[0]))
    entries = []
    for i, delta in enumerate(deltas):
        alpha = param_choice(delta, src, c)
        errs, cls_errs, resids = [], [], []
        for t in range(trials):
            w = w_block[i * trials + t] * src.rho / np.linalg.norm(
                w_block[i * trials + t])
            x0 = w if src.mu == 0 else svd.v @ (
                svd.s ** (2.0 * src.mu) * (svd.v.T @ w))
            x0 = x0.reshape(svd.in_shape)
            x = x0 if f is None else f(x0)
            y = _svd_forward(svd, x0)  # A x = A x0: f only moves the kernel
            noise = e_block[i * trials + t]
            y_d = y + delta * noise / np.linalg.norm(noise)
            x_cls = spectral_reconstruct(svd, y_d.reshape(svd.out_shape),
                                         FilterSpec(filter_kind, alpha))
            x_rec = x_cls if f is None else f(x_cls)
            errs.append(float(np.linalg.norm(x_rec - x)))
            if f is not None:
                cls_errs.append(float(np.linalg.norm(x_cls - x0)))
            resids.append(float(np.linalg.norm(
                _svd_forward(svd, x_rec) - y_d)))
        entry = {"delta": delta, "alpha": alpha,
                 "error": float(np.median(errs))}
        if f is not None:
            entry["classical_error"] = float(np.median(cls_errs))
        entry["residual"] = float(np.median(resids))
        entries.append(entry)
    e_slope, e_hw = fit_loglog_slope([e["delta"] for e in entries],
                                     [e["error"] for e in entries])
    r_slope, r_hw = fit_loglog_slope([e["delta"] for e in entries],
                                     [e["residual"] for e in entries])
    return ConvergenceReport(entries, e_slope, e_hw, r_slope, r_hw)
