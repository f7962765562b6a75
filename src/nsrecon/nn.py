"""Small residual CNN implemented from scratch in numpy: 3x3 circular
convolutions with ReLU, exact backpropagation, Adam with coupled L2 weight
decay, and a byte-stable checkpoint format.

The network computes a correction U(x) through a stack of conv layers; the
residual model returns x + U(x) and the data-consistent model, the
null-space network, returns x + P(U(x)) for a null-space projection P.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True)
class Architecture:
    """Conv stack 1 -> C -> ... -> C -> 1 with 3x3 kernels, circular padding."""

    layers: int = 5
    width: int = 6

    def __post_init__(self):
        if self.layers < 2:
            raise ValueError("need at least 2 layers")
        if self.width < 1:
            raise ValueError("width must be >= 1")

    def channels(self) -> Iterator[tuple[int, int]]:
        """(out_ch, in_ch) per layer, generated lazily so that a corrupt
        checkpoint header cannot ask for a huge list."""
        last = self.layers - 1
        for i in range(self.layers):
            yield (1 if i == last else self.width, 1 if i == 0 else self.width)


@dataclass
class NetParams:
    """The network's parameters as one float64 vector `flat`.  `kernels`
    (per layer, (out_ch, in_ch, 3, 3)) and `biases` (per layer, (out_ch,))
    are tuples of views into it, all kernels first.  Built from per-layer
    arrays of any shape, which it packs into a new vector."""

    kernels: tuple
    biases: tuple
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = (*self.kernels, *self.biases)
        self.flat = np.concatenate([a.ravel() for a in arrays], dtype=float)
        views, at = [], 0
        for a in arrays:
            views.append(self.flat[at:at + a.size].reshape(a.shape))
            at += a.size
        n = len(self.kernels)
        self.kernels, self.biases = tuple(views[:n]), tuple(views[n:])

    def copy(self) -> "NetParams":
        return NetParams(self.kernels, self.biases)

    def scaled(self, factor: float) -> "NetParams":
        out = self.copy()
        out.flat *= factor
        return out


def _row_shifts(x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Row-shift matrix (..., in_ch*3, h*w + 2) of x (..., in_ch, h, w) for
    a 3x3 convolution circular in rows and valid in columns: row 3c + di
    holds rows di .. di+h-1 of x[c] wrap-padded by one, flattened, then two
    zero columns of slack, so column i*w + j + dj holds
    x[c, (i+di-1)%h, j+dj].  Leading axes are a stack of inputs.  It is
    written into rows, a contiguous array of that shape, if given."""
    *lead, c, h, w = x.shape
    if rows is None:
        rows = np.empty((*lead, c * 3, h * w + 2))
    rows[..., h * w:] = 0.0
    # r[c, di, i] is padded row i + di of x[c]: x row (i + di - 1) % h
    r = rows.reshape(*lead, c, 3, -1)[..., :h * w].reshape(*lead, c, 3, h, w)
    r[..., 1, :, :] = x
    r[..., 0, 1:, :], r[..., 0, 0, :] = x[..., :-1, :], x[..., -1, :]
    r[..., 2, :-1, :], r[..., 2, -1, :] = x[..., 1:, :], x[..., 0, :]
    return rows


def _conv_rows(rows: np.ndarray, kernel: np.ndarray, h: int,
               w: int) -> np.ndarray:
    """Bias-free 3x3 convolution, circular in rows and valid in columns, of
    the (..., in_ch, h, w + 2) input whose row-shift matrix is `rows`: one
    GEMM per column offset dj and stacked input.  Returns (..., out_ch, h,
    w + 2) holding out[o,i,j] = sum k[o,c,di,dj] x[c,(i+di-1)%h,j+dj] for
    j < w; the last two columns of each row are slack."""
    out_ch, n = kernel.shape[0], h * (w + 2)
    # taps[dj]: (out_ch, in_ch*3), contiguous so that BLAS runs the product
    taps = np.ascontiguousarray(kernel.transpose(3, 0, 1, 2))
    taps = taps.reshape(3, out_ch, -1)
    out = taps[0] @ rows[..., :n]
    for dj in (1, 2):
        out += taps[dj] @ rows[..., dj:dj + n]
    return out.reshape(*out.shape[:-1], h, w + 2)


def init_params(arch: Architecture, seed: int = 0) -> NetParams:
    """Uniform fan-in initialization on +-sqrt(1/(in_ch*9)), seeded."""
    rng = np.random.default_rng(seed)
    kernels, biases = [], []
    for out_ch, in_ch in arch.channels():
        bound = np.sqrt(1.0 / (in_ch * 9))
        kernels.append(rng.uniform(-bound, bound, (out_ch, in_ch, 3, 3)))
        biases.append(rng.uniform(-bound, bound, out_ch))
    return NetParams(kernels, biases)


def _band(projector, w: int, layers: int):
    """(ctx, arc): the smallest circular arc of m columns holding the
    projector's `columns`, the whole circle (m = w) without any or if
    m + 2 layers > w, and ctx, the arc and `layers` columns each side,
    read mod w, so that it may repeat columns."""
    columns = getattr(projector, "columns", None)
    return _arc_band(b"" if columns is None else columns.tobytes(), w, layers)


@functools.lru_cache(maxsize=16)  # uncached, stripe_train ran 13-16% slower
def _arc_band(columns: bytes, w: int, layers: int):
    cols = np.flatnonzero(np.frombuffer(columns, dtype=bool))
    gaps = np.diff(cols, append=cols[:1] + w)  # to the next marked column
    m = w + 1 - gaps.max(initial=0)
    if m + 2 * layers > w:  # no band fits: the whole circle
        start, m = 0, w
    else:
        start = cols[(np.argmax(gaps) + 1) % cols.size]
    ctx = (start - layers + np.arange(m + 2 * layers)) % w
    ctx.flags.writeable = False  # every forward on this band shares it
    return ctx, ctx[layers:-layers]


def forward(params: NetParams, x: np.ndarray,
            projector: Callable[[np.ndarray], np.ndarray] | None = None,
            cache: dict | None = None):
    """Residual forward pass out = x + U(x), or x + P(U(x)) with a projector,
    where U is the conv stack with ReLU between layers.

    x is one (h, w) image or a stack (k, h, w); a stack runs every layer
    as one batched product and calls the projector once on the stack of
    corrections, and each of its images comes out bit for bit as alone.
    Band rule: the conv stack runs valid convolutions on the projector's
    arc (`_band`, the whole circle without `columns`) and L columns each
    side (L layers), read mod w, so U is circular and 0 off the arc.
    Returns (out, cache).  A call given a cache, the previous step's or {}
    before the first, is a training step: its cache feeds `backward`.
    "band" holds the projector's `_band` and "rows" the `_row_shifts`
    matrix of each layer's input, which for every layer but the first is
    the ReLU output of the layer before, all split from one flat array,
    "store" (2.66 MB for the 64x64 resnet): the given cache's when it has
    that size, so a training loop allocates it once.  Without a cache
    (inference) no "rows" are kept: each layer's matrix is written into
    the front of one fresh store the size of the largest (0.66 MB).
    Raises ValueError on a non-finite x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected an (h, w) image or a (k, h, w) stack, "
                         f"got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")
    h, w = x.shape[-2:]
    layers = len(params.kernels)
    ctx, arc = band = _band(projector, w, layers)
    a = x[..., None, :, ctx]
    v = a.shape[-1]  # width of the layer input, then of its output
    shapes = [(*x.shape[:-2], k.shape[1] * 3, h * (v - 2 * l) + 2)
              for l, k in enumerate(params.kernels)]
    sizes = [math.prod(shape) for shape in shapes]
    # training lends its store (a fresh one a step: +3 MB peak RSS, 1.3k-8k
    # faults a resnet train call against 1.4k); inference's one buffer, in
    # a 2 MB L2 where 2.66 MB was not, runs as fast fresh as lent
    train = cache is not None
    need = sum(sizes) if train else max(sizes)
    lent = cache.get("store") if train else None
    store = lent if lent is not None and lent.size == need else np.empty(need)
    at = np.cumsum([0, *sizes[:-1]]) if train else [0] * layers
    rows = []
    for l, (k, b) in enumerate(zip(params.kernels, params.biases)):
        block = store[at[l]:at[l] + sizes[l]].reshape(shapes[l])
        rows.append(_row_shifts(a[..., :v], block))
        v -= 2
        a = _conv_rows(rows[-1], k, h, v)
        a += b[:, None, None]
        if l < layers - 1:
            np.maximum(a, 0.0, out=a)
    corr = np.zeros(x.shape)
    corr[..., arc] = a[..., 0, :, :v]
    out = x + (corr if projector is None else projector(corr))
    cache = {"rows": rows if train else None, "store": store,
             "projector": projector, "band": band, "x_shape": x.shape}
    return out, cache


def backward(params: NetParams, cache: dict, grad_out: np.ndarray):
    """Exact gradients of the forward pass of one image.

    grad_out is the loss gradient with respect to the output; returns
    (grad_params, grad_in).  The projector, if any, must be linear and
    self-adjoint (orthogonal projections are).  ReLU subgradient at 0 is 0.
    Kernel gradients are taken against the row matrices that only a
    `forward` given a cache keeps, so backward refuses any other.  The
    gradient stays in the (ch, h, v + 2) layout of `_conv_rows`; its slack
    columns are masked to 0, so they add nothing to those products.  It
    runs on the forward's band, padding each gradient with zeros, and adds
    every context column into the column it read.
    """
    grad_out = np.asarray(grad_out, dtype=float)
    if cache["rows"] is None:
        raise ValueError("this forward kept no row matrices: pass it a "
                         "cache, {} before the first step")
    if len(cache["x_shape"]) != 2:
        raise ValueError("backward takes the cache of one image, not of a "
                         "stack")
    if grad_out.shape != cache["x_shape"]:
        raise ValueError("grad_out shape does not match cached forward")
    if len(cache["rows"]) != len(params.kernels):
        raise ValueError("cache does not match parameter count")
    h = grad_out.shape[0]
    (ctx, arc), layers = cache["band"], len(params.kernels)
    top = (grad_out if cache["projector"] is None
           else cache["projector"](grad_out))[:, arc]
    v = top.shape[-1]  # width of the layer output, then of its input
    g = np.zeros((1, h, v + 2))
    g[0, :, :v] = top
    grad_k, grad_b = [None] * layers, [None] * layers
    for l in range(layers - 1, -1, -1):
        k, rows = params.kernels[l], cache["rows"][l]
        flat = g.reshape(len(g), -1)
        grad_k[l] = np.stack([flat @ rows[:, dj:dj + flat.shape[1]].T
                              for dj in range(3)], axis=-1).reshape(k.shape)
        grad_b[l] = g[:, :, :v].sum(axis=(1, 2))
        # the adjoint of a valid correlation is the full one with the
        # flipped, channel-transposed kernel: g padded by two zero columns
        # to the left, and its two slack columns to the right
        shifts = _row_shifts(np.concatenate(
            (np.zeros(g.shape[:-1] + (2,)), g), axis=-1))
        v += 2
        g = _conv_rows(shifts, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                       h, v)
        if l > 0:  # layer l - 1's ReLU mask z > 0 is max(z, 0) > 0, read
            mask = np.zeros(g.shape, dtype=bool)  # off layer l's input
            mask[..., :v] = rows[1::3, :h * v].reshape(-1, h, v) > 0
            g *= mask
    grad_in = grad_out.copy()
    # unbuffered: a column that ctx repeats gathers every read of it
    np.add.at(grad_in, (slice(None), ctx), g[0, :, :v])
    return NetParams(grad_k, grad_b), grad_in


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, shaped like NetParams.flat
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.0


def init_adam(params: NetParams, lr: float = 1e-3,
              weight_decay: float = 0.0) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat),
                     v=np.zeros_like(params.flat), lr=lr,
                     weight_decay=weight_decay)


def adam_step(params: NetParams, grads: NetParams, state: AdamState):
    """One Adam update with coupled L2 weight decay (grad += wd * param),
    elementwise on the parameter vector."""
    t = state.step + 1
    g = grads.flat + state.weight_decay * params.flat
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    params2 = params.copy()
    params2.flat -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params2, replace(state, m=m, v=v, step=t)


_PRUNE_SEEDS = 8  # frequencies whose top eigenvalue starts the prune


def _layer_grams(k: np.ndarray, shape: tuple[int, int]):
    """(G, e): G stacks the smaller Gram matrix, S^H S or S S^H, of the
    9-term symbol S(f) = sum k[:, :, di, dj] 2^-e e^(-2 pi i (f1 di / h +
    f2 dj / w)) at each frequency f of the half spectrum, S(-f) being
    conj S(f).  S^H S(f) is the symbol of the kernel's 5x5
    autocorrelation, whose lag (a, b) term is sum k[:, :, di, dj]^T
    k[:, :, di + a, dj + b], and S S^H is S^H S of the flipped adjoint
    kernel.  Two small DFT products sum the 25 lag terms; they are
    periodic, so lags wrap on grids narrower than 5.  The power of two 2^-e
    brings the largest tap into [0.5, 1) exactly, so no entry of G, nor a
    square in its Frobenius norm, leaves the float range."""
    h, w = shape
    e = np.frexp(np.abs(k).max())[1]
    k = np.ldexp(k, -e)
    if k.shape[0] < k.shape[1]:
        k = k.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    c = k.shape[1]
    pairs = np.einsum("oide,ojab->deabij", k, k)
    lags = np.zeros((5, 5, c, c))
    for di, dj in np.ndindex(3, 3):
        lags[2 - di:5 - di, 2 - dj:5 - dj] += pairs[di, dj]
    e1, e2 = (np.exp(-2j * np.pi / n * (np.arange(m)[:, None] * range(-2, 3)
                                        % n))
              for m, n in ((h, h), (w // 2 + 1, w)))  # frequency x lag
    partial = (e2 @ lags.swapaxes(0, 1).reshape(5, -1)).reshape(-1, 5, c * c)
    return (e1 @ partial).reshape(-1, c, c), e


def layer_operator_norms(params: NetParams,
                         shape: tuple[int, int]) -> list[float]:
    """Exact operator norm of each conv layer (bias excluded) on a grid of
    `shape` (Sedghi, Gupta & Long, ICLR 2019): the root of the largest top
    eigenvalue of the Gram matrices of `_layer_grams`.  They are PSD, so a
    Frobenius norm bounds its top eigenvalue: `eigvalsh` runs at the
    _PRUNE_SEEDS largest, whose top eigenvalue lo bounds the maximum from
    below, then only where the Frobenius norm is >= lo (1 - 1e-12), as no
    other frequency can hold it.  Raises ValueError on a grid side < 1 or a
    non-finite kernel."""
    if min(shape) < 1:
        raise ValueError(f"grid {shape} has a side < 1")
    norms = []
    for layer, k in enumerate(params.kernels):
        if not np.all(np.isfinite(k)):
            raise ValueError(f"layer {layer} kernel is not finite")
        gram, e = _layer_grams(k, shape)
        fro = np.linalg.norm(gram, axis=(1, 2))
        lo = np.linalg.eigvalsh(gram[np.argsort(fro)[-_PRUNE_SEEDS:]]).max()
        top = np.linalg.eigvalsh(gram[fro >= lo * (1 - 1e-12)]).max()
        norms.append(float(np.ldexp(np.sqrt(top), e)))
    return norms


def lipschitz_bound(params: NetParams, shape: tuple[int, int]) -> float:
    """Upper bound on Lip(id + P o U): 1 + product of conv layer norms
    (ReLU and orthogonal projections are 1-Lipschitz)."""
    return 1.0 + float(np.prod(layer_operator_norms(params, shape)))


_CKPT_MAGIC = b"nsnet-ckpt v1\n"


def _architecture(path, layers: int, width: int) -> Architecture:
    """Architecture(layers, width), its refusal prefixed by the path."""
    try:
        return Architecture(layers, width)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_params(path, params: NetParams) -> None:
    """Write a versioned, byte-stable checkpoint (header + raw float64) of
    params and the Architecture they form.  Raises ValueError, writing
    nothing, on non-finite params or on no 1 -> C -> ... -> C -> 1 stack."""
    if not np.all(np.isfinite(params.flat)):
        raise ValueError(f"{path}: refusing to save non-finite parameters")
    have = [(np.shape(k), np.shape(b))
            for k, b in zip_longest(params.kernels, params.biases)]
    arch = _architecture(path, len(have),
                         int(np.prod(have[0][1])) if have else 0)
    want = [(chans + (3, 3), chans[:1]) for chans in arch.channels()]
    for layer, (h, w) in enumerate(zip(have, want)):
        if h != w:
            raise ValueError(f"{path}: layer {layer} kernel and bias shapes "
                             f"{h} do not match {arch}")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<ii", arch.layers, arch.width))
        for k, b in zip(params.kernels, params.biases):
            fh.write(struct.pack("<iiii", *k.shape))
            fh.write(np.ascontiguousarray(k, dtype="<f8").tobytes())
            fh.write(struct.pack("<i", b.shape[0]))
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(path):
    """Read a checkpoint written by `save_params`; returns (arch, params).
    Raises ValueError naming the path on a foreign, truncated or over-long
    file, a header no Architecture takes or non-finite parameters."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")

        def read(size):  # a block longer than the file is never allocated
            data = fh.read(size) if size <= end - fh.tell() else b""
            if len(data) != size:
                raise ValueError(f"{path}: truncated checkpoint")
            return data

        layers, width = struct.unpack("<ii", read(8))
        arch = _architecture(path, layers, width)
        kernels, biases = [], []
        for layer, chans in enumerate(arch.channels()):
            kshape = struct.unpack("<iiii", read(16))
            if kshape != chans + (3, 3):
                raise ValueError(f"{path}: layer {layer} kernel shape "
                                 f"{kshape} does not match {arch}")
            count = int(np.prod(kshape))
            kernels.append(np.frombuffer(read(8 * count),
                                         dtype="<f8").reshape(kshape))
            (blen,) = struct.unpack("<i", read(4))
            if blen != chans[0]:
                raise ValueError(f"{path}: layer {layer} has {blen} biases, "
                                 f"expected {chans[0]}")
            biases.append(np.frombuffer(read(8 * blen), dtype="<f8"))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last layer")
    params = NetParams(kernels, biases)
    if not np.all(np.isfinite(params.flat)):
        raise ValueError(f"{path}: non-finite parameters")
    return arch, params
