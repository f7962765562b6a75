"""Experiment harness: training of the residual / data-consistent networks,
evaluation over ID and OOD samples, measurement-residual audit, and the
convergence-rate studies for classical and learned regularization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from . import nn
from .data import Sample, make_dataset
from .linops import LinOp, SvdFactors
from .metrics import mse, psnr, ssim
from .nullspace import NullProjector, mask_projector
from .operators import (StripeMaskSpec, dense_op, make_cumsum,
                        make_stripe_operator)
from .regularize import (FilterSpec, SourceCondition, make_source_element,
                         param_choice, spectral_reconstruct)

MODEL_KINDS = ("resnet", "dcnet")


@dataclass(frozen=True)
class Problem:
    """The stripe-masked integration problem with its kernel projector.

    `op` must be `support * (L x)`, with L the per-column integration
    `make_cumsum(h, h, spacing)`: `reconstruct` relies on that structure.
    """

    op: LinOp
    projector: NullProjector
    support: np.ndarray   # observed entries of the data grid
    spacing: float = 1.0  # grid step: scales the integration and the noise sd
    alpha: float = 0.01   # Tikhonov parameter of `reconstruct`

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @classmethod
    def benchmark(cls, image_size: int = 64, spacing: float = 1.0 / 8.0,
                  alpha: float = 0.01) -> "Problem":
        # stripes (4k+1, 4k+2), k in {0..3}, are the REMOVED columns: the
        # reported Tikhonov OOD quality is only reachable when the bulk of
        # the image stays observed (a keep-the-stripes mask caps any
        # column-local reconstruction far below it).  Integration carries a
        # grid step so that alpha = 0.01 sits inside the spectrum and
        # attenuates, without erasing, the stripe oscillation: a
        # shift-equivariant network can only repaint stripes whose phase
        # survives in its input.  The nominal noise sd refers to the raw
        # unit-step prefix sums, so it is scaled by the same grid step as
        # the data.
        spec = StripeMaskSpec(image_width=image_size, complement=True)
        op, mask, kept = make_stripe_operator(image_size, image_size, spec,
                                              spacing=spacing)
        support = np.zeros((image_size, image_size))
        support[:, list(kept)] = 1.0
        return cls(op=op, projector=mask_projector(op, mask),
                   support=support, spacing=spacing, alpha=alpha)

    @cached_property
    def _tikhonov(self) -> np.ndarray:
        # A x = support * (L x) acts column by column, so
        # (A*A + alpha I)^-1 A* y = R (support * y) with one h x h matrix
        # R = (L^T L + alpha I)^-1 L^T; built on first use, so that
        # benchmark() stays free of matrix work
        h = self.op.in_shape[0]
        lmat = make_cumsum(h, h, self.spacing).apply(np.eye(h))
        return np.linalg.solve(lmat.T @ lmat + self.alpha * np.eye(h),
                               lmat.T)

    def reconstruct(self, y: np.ndarray) -> np.ndarray:
        """B_alpha y: Tikhonov by a direct per-column solve; raises
        ValueError on a y of the wrong shape or with non-finite entries."""
        y = np.asarray(y, dtype=float)
        if y.shape != self.support.shape:
            raise ValueError(f"expected data shape {self.support.shape}, "
                             f"got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y has non-finite entries")
        return self._tikhonov @ (self.support * y)

    def dataset(self, n: int, kind: str, seed: int, sigma: float,
                **kw) -> list[Sample]:
        """`make_dataset` on this problem, with the nominal noise sd sigma
        scaled to the data grid and the noise kept on observed entries."""
        return make_dataset(n, kind, seed, self.op,
                            sigma=sigma * self.spacing,
                            support=self.support, **kw)


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
        if not (self.lr > 0 and self.weight_decay >= 0 and self.sigma >= 0):
            raise ValueError("need lr > 0, weight_decay >= 0 and sigma >= 0")


def train(cfg: TrainConfig, problem: Problem | None = None):
    """Train one model on pre-generated ID pairs, one Adam step per epoch.

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
    projector = problem.projector if cfg.model_kind == "dcnet" else None
    samples = problem.dataset(cfg.epochs, "ID", cfg.data_seed, cfg.sigma)
    log = []
    for epoch, s in enumerate(samples):
        b = problem.reconstruct(s.y)
        out, cache = nn.forward(params, b, projector)
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
        if not (self.n_per_kind >= 1 and self.sigma >= 0):
            raise ValueError("need n_per_kind >= 1 and sigma >= 0")


METHODS = ("tikhonov", "resnet", "dcnet")
_OOD_SEED_OFFSET = 500_000


@dataclass
class EvalReport:
    rows: list            # per-sample dicts
    means: dict           # means[method][kind][metric]

    def recompute_means(self) -> dict:
        out = {}
        for method in METHODS:
            out[method] = {}
            for kind in ("ID", "OOD"):
                sel = [r for r in self.rows
                       if r["method"] == method and r["kind"] == kind]
                if not sel:
                    continue
                out[method][kind] = {
                    m: float(np.mean([r[m] for r in sel]))
                    for m in ("psnr", "ssim", "mse", "residual")}
        return out

    def to_csv(self, path) -> None:
        cols = ["kind", "index", "method", "psnr", "ssim", "mse", "residual"]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows({c: r[c] for c in cols} for r in self.rows)


def _eval_samples(problem: Problem, cfg: EvalConfig, kind: str, n: int,
                  seed: int) -> list[Sample]:
    """n evaluation samples of a kind; OOD draws from a disjoint seed range."""
    seed += _OOD_SEED_OFFSET if kind == "OOD" else 0
    return problem.dataset(n, kind, seed, cfg.sigma)


def reconstruct_all(problem: Problem, sample: Sample,
                    params_resnet: nn.NetParams, params_dcnet: nn.NetParams):
    """Tikhonov, ResNet and DC-Net reconstructions of one sample."""
    tik = problem.reconstruct(sample.y)
    res = nn.forward(params_resnet, tik)[0]
    dc = nn.forward(params_dcnet, tik, problem.projector)[0]
    return {"tikhonov": tik, "resnet": res, "dcnet": dc}


def evaluate(params_resnet: nn.NetParams, params_dcnet: nn.NetParams,
             cfg: EvalConfig | None = None,
             problem: Problem | None = None) -> EvalReport:
    """Metric table over fresh ID and OOD samples for the three methods."""
    if not (nn._all_finite(params_resnet) and nn._all_finite(params_dcnet)):
        raise ValueError("non-finite network parameters")
    cfg = cfg or EvalConfig()
    problem = problem or Problem.benchmark()
    rows = []
    for kind in ("ID", "OOD"):
        samples = _eval_samples(problem, cfg, kind, cfg.n_per_kind,
                                cfg.eval_seed)
        for i, s in enumerate(samples):
            recs = reconstruct_all(problem, s, params_resnet, params_dcnet)
            for method, xr in recs.items():
                rows.append({
                    "kind": kind, "index": i, "method": method,
                    "psnr": psnr(s.x, xr), "ssim": ssim(s.x, xr),
                    "mse": mse(s.x, xr),
                    "residual": float(np.linalg.norm(
                        problem.op.apply(xr) - s.y)),
                })
    report = EvalReport(rows=rows, means={})
    report.means = report.recompute_means()
    return report


def dc_audit(params: nn.NetParams, model_kind: str, n: int, seed: int,
             cfg: EvalConfig | None = None,
             problem: Problem | None = None) -> list[dict]:
    """Measurement residual of the model vs its Tikhonov input, per sample.

    Half the samples are ID, half OOD.  For the dcnet the two residuals
    agree to rounding; for the resnet they generally differ.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not nn._all_finite(params):
        raise ValueError("non-finite network parameters")
    cfg = cfg or EvalConfig()
    problem = problem or Problem.benchmark()
    projector = problem.projector if model_kind == "dcnet" else None
    out = []
    for kind, count in (("ID", n // 2), ("OOD", n - n // 2)):
        if count == 0:
            continue
        for s in _eval_samples(problem, cfg, kind, count, seed):
            tik = problem.reconstruct(s.y)
            rec = nn.forward(params, tik, projector)[0]
            out.append({
                "kind": kind, "seed": s.seed,
                "residual_tikhonov": float(np.linalg.norm(
                    problem.op.apply(tik) - s.y)),
                "residual_model": float(np.linalg.norm(
                    problem.op.apply(rec) - s.y)),
                "y_norm": float(np.linalg.norm(s.y)),
            })
    return out


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
    matrix = (u * s) @ v.T
    svd = SvdFactors(u=u, s=s, v=v, rank_tol=1e-12 * n,
                     in_shape=shape, out_shape=shape)
    return dense_op(matrix, shape, shape), svd


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) vs log(x) with a 95% half-width (nan
    for two points, which leave no residual degree of freedom)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError(f"a slope fit needs >= 2 points, got {lx.size}")
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope = float(coef[0])
    dof = len(lx) - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        sxx = float(np.sum((lx - lx.mean())**2))
        half = 1.96 * np.sqrt(sigma2 / sxx)
    else:
        half = np.nan  # no residual degree of freedom: width unknown
    return slope, float(half)


@dataclass
class ConvergenceReport:
    entries: list         # per-delta dicts
    error_slope: float
    error_slope_hw: float
    residual_slope: float
    residual_slope_hw: float

    def to_csv(self, path) -> None:
        cols = list(self.entries[0].keys())
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(self.entries)


def _svd_forward(svd: SvdFactors, x: np.ndarray) -> np.ndarray:
    return svd.u @ (svd.s * (svd.v.T @ x.ravel()))


def _rate_study(svd: SvdFactors, filter_kind: str, src: SourceCondition,
                deltas, trials: int, seed: int, c: float,
                f=None) -> ConvergenceReport:
    """Error and residual decay of a spectral filter, optionally followed by
    an image map f, under the a-priori parameter choice rule.

    Test elements are x = f(x0) with x0 from the source set; f must leave
    A x0 unchanged.  With f the entries also carry the classical error of
    the filter alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    deltas = sorted(np.asarray(deltas, dtype=float), reverse=True)
    entries = []
    for i, delta in enumerate(deltas):
        alpha = param_choice(delta, src, c)
        errs, cls_errs, resids = [], [], []
        for t in range(trials):
            sub = seed + 1009 * i + t
            x0 = make_source_element(svd, src, seed=sub)
            x = x0 if f is None else f(x0)
            y = _svd_forward(svd, x0)  # A x = A x0: f only moves the kernel
            rng = np.random.default_rng(sub + 31337)
            noise = rng.standard_normal(y.shape)
            y_d = y + delta * noise / np.linalg.norm(noise)
            x_cls = spectral_reconstruct(svd, y_d,
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

    Test elements are x = f(x0) with x0 from the classical source set; the
    report carries both the learned and the classical errors together with
    the network's layer-norm Lipschitz bound.  Returns (report, lip_bound).
    """
    lip = nn.lipschitz_bound(params, svd.in_shape)
    report = _rate_study(svd, filter_kind, src, deltas, trials, seed, c,
                         f=lambda img: nn.forward(params, img, proj)[0])
    return report, lip


def save_json_summary(path, payload: dict) -> None:
    """JSON dump with dataclass configs flattened for provenance."""
    def default(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return asdict(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"cannot serialize {type(obj)}")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=default, sort_keys=True)
