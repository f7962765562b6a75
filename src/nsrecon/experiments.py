"""Experiment harness: training of the residual / data-consistent networks,
evaluation over ID and OOD samples, measurement-residual audit, and the
convergence-rate studies for classical and learned regularization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from functools import cache, cached_property

import numpy as np

from . import nn
from .data import PATCH_SIZE, Sample, make_dataset
from .linops import MatvecOp, SvdFactors, _check_stack, dense_op, make_cumsum
from .metrics import mse, psnr, ssim
from .nullspace import NullProjector, mask_projector
from .regularize import (FilterSpec, SourceCondition, filter_weights,
                         param_choice)

MODEL_KINDS = ("resnet", "dcnet")


@dataclass(frozen=True)
class Problem:
    """The stripe-masked integration problem on an image_size square grid:
    the operator, its read-only 0/1 support, its kernel projector and the
    Tikhonov matrix of `reconstruct` derive from the fields on first use."""

    image_size: int
    spacing: float  # grid step: scales the integration and the noise sd
    alpha: float    # Tikhonov parameter of `reconstruct`

    def __post_init__(self):
        for name in ("spacing", "alpha"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.image_size < 14:
            raise ValueError("image_size must be >= 14 to hold the stripes")

    @classmethod
    def benchmark(cls, image_size: int = 64, spacing: float = 1.0 / 8.0,
                  alpha: float = 0.01) -> "Problem":
        return cls(image_size, spacing, alpha)

    @cached_property
    def support(self) -> np.ndarray:
        # the stripes, array columns {4k, 4k+1} for k = 0..3, are the
        # REMOVED columns: the reported Tikhonov OOD quality is only
        # reachable when the bulk of the image stays observed (a
        # keep-the-stripes mask caps any column-local reconstruction far
        # below it).
        support = np.ones((self.image_size, self.image_size))
        support[:, [0, 1, 4, 5, 8, 9, 12, 13]] = 0.0
        support.flags.writeable = False
        return support

    @cached_property
    def op(self) -> MatvecOp:
        # A x = support * (L x), L the per-column integration.  L carries a
        # grid step so that alpha = 0.01 sits inside the spectrum and
        # attenuates, without erasing, the stripe oscillation: a
        # shift-equivariant network can only repaint stripes whose phase
        # survives in its input.  The nominal noise sd refers to the raw
        # unit-step prefix sums, so it is scaled by the same grid step as
        # the data.
        n, support = self.image_size, self.support
        cumsum = make_cumsum(n, n, self.spacing)
        return MatvecOp((n, n), (n, n), lambda x: cumsum.apply(x) * support,
                        lambda y: cumsum.adjoint(y * support))

    @cached_property
    def projector(self) -> NullProjector:
        return mask_projector(self.support)

    def model_projector(self, model_kind: str) -> NullProjector | None:
        """The projector a network of model_kind runs with: the kernel
        projector for the dcnet, none for the resnet."""
        if model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, "
                             f"got {model_kind!r}")
        return self.projector if model_kind == "dcnet" else None

    @cached_property
    def _tikhonov(self) -> np.ndarray:
        # A x = support * (L x) acts column by column, so
        # (A*A + alpha I)^-1 A* y = R (support * y) with one h x h matrix
        # R = (L^T L + alpha I)^-1 L^T
        h = self.image_size
        lmat = self.spacing * np.tril(np.ones((h, h)))
        return np.linalg.solve(lmat.T @ lmat + self.alpha * np.eye(h),
                               lmat.T)

    def reconstruct(self, y: np.ndarray) -> np.ndarray:
        """B_alpha y of one data image or a stack (k, h, w), in one product:
        Tikhonov by a direct per-column solve; raises ValueError on a y of
        another shape or with non-finite entries."""
        y = _check_stack(y, self.support.shape)
        if not np.all(np.isfinite(y)):
            raise ValueError("y has non-finite entries")
        return self._tikhonov @ (self.support * y)

    def dataset(self, n: int, kind: str, seed: int, sigma: float,
                patch_size: int = PATCH_SIZE) -> list[Sample]:
        """`make_dataset` on this problem, with the nominal noise sd sigma
        scaled to the data grid and the noise kept on observed entries."""
        return make_dataset(n, kind, seed, self.op, sigma * self.spacing,
                            self.support, patch_size)


def _check_seeds(**seeds):
    """Raise ValueError naming the first negative seed, which numpy would
    refuse without a name."""
    for name, seed in seeds.items():
        if seed < 0:
            raise ValueError(f"{name} must be >= 0, got {seed}")


@dataclass
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-4
    sigma: float = 0.05
    model_kind: str = "resnet"
    data_seed: int = 0
    init_seed: int = 0
    arch: nn.Architecture = field(default_factory=nn.Architecture)

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (0.0 < self.lr < np.inf and 0.0 <= self.weight_decay < np.inf
                and 0.0 <= self.sigma < np.inf):
            raise ValueError("need a finite lr > 0, and a finite "
                             "weight_decay and sigma >= 0")
        # inline: the call made each valid config 12% slower to build
        if self.data_seed < 0 or self.init_seed < 0:
            _check_seeds(data_seed=self.data_seed, init_seed=self.init_seed)


# pairs `train` draws at once: drawn one an epoch, between two steps, a
# 64 x 64 pair took 0.53 ms instead of 0.21 ms (traced stripe_train), and
# a default dcnet train call took 6% longer
_DRAW_BLOCK = 16


def train(cfg: TrainConfig, problem: Problem | None = None):
    """Train one model on ID pairs, one Adam step per epoch.

    Epoch e trains on element e of `problem.dataset(cfg.epochs, "ID",
    cfg.data_seed, cfg.sigma)`, drawn _DRAW_BLOCK pairs at a time when the
    first of them comes, so memory is constant in the number of epochs.
    Per pair: reconstruct the data classically (`Problem.reconstruct`), run
    the model on the reconstruction, take one Adam step on the squared-error
    loss (the Frobenius weight penalty enters through Adam's coupled weight
    decay).
    Returns (params, per-epoch loss list).
    """
    problem = problem or Problem.benchmark()
    params = nn.init_params(cfg.arch, cfg.init_seed)
    if cfg.epochs == 0:
        return params, []
    state = nn.init_adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    projector = problem.model_projector(cfg.model_kind)
    log, cache = [], {}
    for epoch in range(cfg.epochs):
        if epoch % _DRAW_BLOCK == 0:
            block = problem.dataset(min(_DRAW_BLOCK, cfg.epochs - epoch),
                                    "ID", cfg.data_seed + epoch, cfg.sigma)
        s = block[epoch % _DRAW_BLOCK]
        b = problem.reconstruct(s.y)
        out, cache = nn.forward(params, b, projector, cache)
        r = out - s.x
        loss = float(np.sum(r * r))
        if not np.isfinite(loss):
            raise RuntimeError(
                f"training diverged at epoch {epoch}: loss={loss}")
        grads, _ = nn.backward(params, cache, 2.0 * r)
        params, state = nn.adam_step(params, grads, state)
        log.append(loss)
    return params, log


@dataclass
class EvalConfig:
    n_per_kind: int = 20
    eval_seed: int = 10_000
    sigma: float = 0.05

    def __post_init__(self):
        if not (self.n_per_kind >= 1 and 0.0 <= self.sigma < np.inf):
            raise ValueError("need n_per_kind >= 1 and a finite sigma >= 0")
        _check_seeds(eval_seed=self.eval_seed)


_METRICS = ("psnr", "ssim", "mse", "residual")
_OOD_SEED_OFFSET = 500_000


@dataclass
class EvalReport:
    rows: list            # per-sample dicts
    means: dict           # means[method][kind][metric]


def _reconstructions(problem: Problem, sigma: float, counts: tuple[int, int],
                     seed: int, models: dict):
    """Yield (kind, index, sample, reconstructions) for counts = (ID, OOD)
    fresh samples, OOD from a disjoint seed range.  reconstructions maps
    "tikhonov" to B_alpha y and each kind of models (kind -> params) to
    that network on B_alpha y, run with `Problem.model_projector(kind)`."""
    projectors = {kind: problem.model_projector(kind) for kind in models}
    if not all(np.all(np.isfinite(p.flat)) for p in models.values()):
        raise ValueError("non-finite network parameters")
    for kind, count, offset in zip(("ID", "OOD"), counts,
                                   (0, _OOD_SEED_OFFSET)):
        if count == 0:
            continue
        # one draw per kind: per-sample draws read evaluate 6% and dc_audit
        # 5% slower, to save about 1 MB
        for i, s in enumerate(problem.dataset(count, kind, seed + offset,
                                              sigma)):
            tik = problem.reconstruct(s.y)
            recs = {"tikhonov": tik}
            for k, params in models.items():
                recs[k] = nn.forward(params, tik, projectors[k])[0]
            yield kind, i, s, recs


def _residual(problem: Problem, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(problem.op.apply(x) - y))


def evaluate(params_resnet: nn.NetParams, params_dcnet: nn.NetParams,
             cfg: EvalConfig | None = None,
             problem: Problem | None = None) -> EvalReport:
    """Metric table over fresh ID and OOD samples for the three methods."""
    cfg = cfg or EvalConfig()
    problem = problem or Problem.benchmark()
    return _eval_report(problem, _reconstructions(
        problem, cfg.sigma, (cfg.n_per_kind,) * 2, cfg.eval_seed,
        {"resnet": params_resnet, "dcnet": params_dcnet}))


def _eval_report(problem: Problem, stream) -> EvalReport:
    """The metric rows and means of a `_reconstructions` stream."""
    rows, groups = [], {}
    for kind, i, s, recs in stream:
        scores = ssim(s.x, np.stack(list(recs.values())))
        for (method, xr), score in zip(recs.items(), scores):
            row = {"kind": kind, "index": i, "method": method,
                   "psnr": psnr(s.x, xr), "ssim": float(score),
                   "mse": mse(s.x, xr),
                   "residual": _residual(problem, xr, s.y)}
            rows.append(row)
            groups.setdefault(method, {}).setdefault(kind, []).append(row)
    means = {method: {kind: {m: float(np.mean([r[m] for r in sel]))
                             for m in _METRICS}
                      for kind, sel in by_kind.items()}
             for method, by_kind in groups.items()}
    return EvalReport(rows=rows, means=means)


def dc_audit(params: nn.NetParams, model_kind: str, n: int, seed: int,
             cfg: EvalConfig | None = None,
             problem: Problem | None = None) -> list[dict]:
    """Measurement residual of the model vs its Tikhonov input, per sample.

    n // 2 samples are ID, the rest OOD, drawn as `evaluate` draws them;
    of cfg only the noise level sigma is read.  For the dcnet the two
    residuals agree to rounding; for the resnet they generally differ.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_seeds(seed=seed)
    cfg = cfg or EvalConfig()
    problem = problem or Problem.benchmark()
    return [{"kind": kind, "seed": s.seed,
             "residual_tikhonov": _residual(problem, recs["tikhonov"], s.y),
             "residual_model": _residual(problem, recs[model_kind], s.y),
             "y_norm": float(np.linalg.norm(s.y))}
            for kind, _, s, recs in _reconstructions(
                problem, cfg.sigma, (n // 2, n - n // 2), seed,
                {model_kind: params})]


# ---------------------------------------------------------------------------
# Convergence-rate studies


def make_rate_operator(shape: tuple[int, int] = (16, 16),
                       s_min: float = 1e-4, kernel_dim: int = 0,
                       seed: int = 0):
    """Dense test operator with a geometrically decaying spectrum (s_max = 1)
    and an optional exact null space of dimension kernel_dim.

    Returns (op, svd).  The spectrum spans several decades so the bias term
    of spectral filters is visible across the whole noise-level range.
    """
    n = shape[0] * shape[1]
    if kernel_dim < 0 or kernel_dim >= n:
        raise ValueError("kernel_dim out of range")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros(n)
    s[:n - kernel_dim] = np.geomspace(1.0, s_min, n - kernel_dim)
    svd = SvdFactors(u=u, s=s, v=v, in_shape=shape, out_shape=shape)
    return dense_op(svd.matrix(), shape, shape), svd


def _positive(values, name: str, abscissae: bool = False) -> np.ndarray:
    """values as floats; ValueError unless all are finite and positive and,
    as the abscissae of a slope fit, 1-D with at least two distinct."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError(f"{name} must be finite and positive, got {values}")
    if abscissae and values.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {values.shape}")
    if abscissae and not (values.size >= 2 and values.min() < values.max()):
        raise ValueError(f"a slope fit needs >= 2 points of distinct "
                         f"{name}, got {values}")
    return values


# Student's t quantile 0.975 as a series in 1/dof (Cornish-Fisher; A&S
# 26.7.5, its fifth term from Fisher & Cornish, Technometrics 2, 1960):
# term k is z q_k(z^2) / (d_k dof^k), z the normal quantile 0.975;
# (q_k from z^0 up, d_k)
_T_TERMS = (((1, 1), 4), ((3, 16, 5), 96), ((-15, 17, 19, 3), 384),
            ((-945, -1920, 1482, 776, 79), 92160),
            ((17955, -765, -1782, 930, 339, 27), 368640))


@cache  # uncached, a classical rate study's two calls took 66 us of 1.84 ms
def _t975(dof: int) -> float:
    """Student's t quantile 0.975 at dof >= 1: exact at 1 and 2, the series
    from 3 (within 3e-4 relative, the worst at 3 dof)."""
    p, z = 0.975, 1.959963984540054
    if dof <= 2:
        return (math.tan(math.pi * (p - 0.5)) if dof == 1 else
                (2 * p - 1) / math.sqrt(2 * p * (1 - p)))
    return z + sum(z * np.polyval(q[::-1], z * z) / (d * dof**k)
                   for k, (q, d) in enumerate(_T_TERMS, 1))


def _loglog_fits(lx: np.ndarray, *lys: np.ndarray) -> list[tuple]:
    """(slope, 95% half-width) of each least-squares line of ly on lx, all
    fits sharing the centred lx and the t quantile at n - 2 dof (a nan
    half-width at 0 dof)."""
    dx = lx - lx.mean()
    sxx, dof = float(dx @ dx), len(lx) - 2
    fits = []
    for ly in lys:
        dy = ly - ly.mean()
        slope = float(dx @ dy) / sxx
        sse = float(np.sum((dy - slope * dx)**2))
        fits.append((slope, float(_t975(dof) * math.sqrt(sse / dof / sxx))
                     if dof else math.nan))
    return fits


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) vs log(x) with a 95% half-width, by
    the t quantile at n - 2 degrees of freedom (nan for two points, which
    leave none).  Raises ValueError, naming x or y, unless both are 1-D
    and of one length, all values are finite and positive and at least
    two x differ."""
    lx = np.log(_positive(xs, "x", abscissae=True))
    ly = np.log(_positive(ys, "y"))
    if ly.shape != lx.shape:
        raise ValueError(f"y must hold one point per x, {lx.size} in all; "
                         f"got shape {ly.shape}")
    return _loglog_fits(lx, ly)[0]


@dataclass
class ConvergenceReport:
    entries: list         # per-delta dicts
    error_slope: float
    error_slope_hw: float
    residual_slope: float
    residual_slope_hw: float


def _norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.norm(stack.reshape(len(stack), -1), axis=1)


def _rate_study(svd: SvdFactors, filter_kind: str, src: SourceCondition,
                deltas, trials: int, seed: int, c: float,
                f=None) -> ConvergenceReport:
    """Error and residual decay of a spectral filter, optionally followed by
    an image map f, under the a-priori parameter choice rule.

    Test elements are x = f(x0) with x0 from the source set; f must leave
    A x0 unchanged and map a stack (k, *svd.in_shape) of images.  With f
    the entries also carry the classical error of the filter alone.  The
    two children of SeedSequence(seed) draw stacks of k source directions
    and k noise images, k = len(deltas) * trials: trial t at the i-th
    largest delta is image i * trials + t of each.  The classical path is
    two products into SVD coefficients, then the weights of every alpha in
    one broadcast; f runs once, on the stack of every reconstruction and
    x0.  One np.median takes every median, and both fits share log delta.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    deltas = np.sort(_positive(deltas, "delta", abscissae=True))[::-1]
    _positive(c, "c")
    spec = FilterSpec(filter_kind, param_choice(deltas, src, c))
    if not np.any(svd.s > 0):
        raise ValueError("operator has no positive singular value")
    k, p = len(deltas) * trials, len(svd.s)
    w, e = (np.random.default_rng(child).standard_normal((k,) + grid) for
            child, grid in zip(np.random.SeedSequence(seed).spawn(2),
                               (svd.in_shape, svd.out_shape)))
    for stack, size in ((w, src.rho), (e, np.repeat(deltas, trials))):
        rows = stack.reshape(k, -1)    # a view: scales the stack in place
        rows *= (size / _norms(rows))[:, None]
    c_w, c_e = svd.coeffs(w), svd.data_coeffs(e)
    c0 = svd.s ** (2.0 * src.mu) * c_w
    d = svd.s * c0 + c_e  # coefficients of y_d = A x0 + e
    c_cls = (filter_weights(spec, svd.s)[:, None]
             * d.reshape(-1, trials, p)).reshape(k, p)
    # parts outside the span of a thin factor, formed explicitly: a
    # difference of squared norms loses small errors to cancellation
    n, m = w[0].size, e[0].size
    w_out = _norms(w - svd.image(c_w)) if src.mu == 0 and p < n else 0.0
    e_out = _norms(e - svd.data_image(c_e)) if p < m else 0.0
    errs = cls_errs = np.hypot(_norms(c_cls - c0), w_out)
    c_rec = c_cls
    if f is not None:
        x0 = w if src.mu == 0 else svd.image(c0)
        out = f(np.concatenate([svd.image(c_cls), x0]))
        errs, c_rec = _norms(out[:k] - out[k:]), svd.coeffs(out[:k])
    resids = np.hypot(_norms(svd.s * c_rec - d), e_out)
    errs, cls_errs, resids = np.median(
        np.reshape([errs, cls_errs, resids], (3, -1, trials)), axis=-1)
    entries = [{"delta": delta, "alpha": alpha, "error": float(err),
                **({} if f is None else {"classical_error": float(cls)}),
                "residual": float(res)} for delta, alpha, err, cls, res
               in zip(deltas, spec.alpha, errs, cls_errs, resids)]
    fits = _loglog_fits(np.log(deltas), np.log(_positive(errs, "error")),
                        np.log(_positive(resids, "residual")))
    return ConvergenceReport(entries, *fits[0], *fits[1])


def convergence_study(svd: SvdFactors, filter_kind: str,
                      src: SourceCondition, deltas, trials: int = 10,
                      seed: int = 0, c: float = 1.0) -> ConvergenceReport:
    """Empirical error and residual decay of a spectral filter under the
    a-priori parameter choice rule.

    Noise has exact norm delta (random direction), so delta is the true
    noise level.  Slopes are least-squares fits on per-delta medians.
    """
    return _rate_study(svd, filter_kind, src, deltas, trials, seed, c)


def nsn_convergence_study(params: nn.NetParams, proj: NullProjector,
                          svd: SvdFactors, filter_kind: str,
                          src: SourceCondition, deltas, trials: int = 10,
                          seed: int = 0, c: float = 1.0):
    """Rate study for the null-space network composed with a spectral filter.

    Test elements are x = f(x0) with x0 from the classical source set and
    f = id + P o U the network; the report carries both the learned and
    the classical errors together with the network's layer-norm Lipschitz
    bound.  The network runs once, on the stack of all 2 * len(deltas) *
    trials images, so an `iterative_projector` makes one block solve for
    the study.  Arguments are checked before any work, and the bound comes
    last.  Returns (report, lip_bound).
    """
    if not np.all(np.isfinite(params.flat)):
        raise ValueError("non-finite network parameters")
    report = _rate_study(svd, filter_kind, src, deltas, trials, seed, c,
                         f=lambda stack: _network(params, stack, proj)[0])
    return report, nn.lipschitz_bound(params, svd.in_shape)


# The rate study's network map, bound at import rather than looked up as
# nn.forward: perfbench/tracer.py counts the conv FLOPs of an nn.forward
# call from the shape of one image and fails on a stack (ROADMAP item 2).
_network = nn.forward


def save_json_summary(path, payload: dict) -> None:
    """Strict JSON (RFC 8259), keys sorted, with dataclass configs flattened
    for provenance and non-finite floats, which it cannot spell, as null."""
    plain = json.loads(json.dumps(payload, default=asdict),
                       parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(plain, fh, indent=2, sort_keys=True, allow_nan=False)
