"""Small residual CNN implemented from scratch in numpy: 3x3 circular
convolutions with ReLU, exact backpropagation, Adam with coupled L2 weight
decay, and a byte-stable checkpoint format.

The network computes a correction U(x) through a stack of conv layers; the
residual model returns x + U(x) and the data-consistent model, the
null-space network, returns x + P(U(x)) for a null-space projection P.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
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
    kernels: list  # per layer, (out_ch, in_ch, 3, 3)
    biases: list   # per layer, (out_ch,)

    def copy(self) -> "NetParams":
        return NetParams([k.copy() for k in self.kernels],
                         [b.copy() for b in self.biases])

    def scaled(self, factor: float) -> "NetParams":
        return NetParams([k * factor for k in self.kernels],
                         [b * factor for b in self.biases])


def _row_shifts(x: np.ndarray) -> np.ndarray:
    """Row-shift matrix (..., in_ch*3, h*(w+2) + 2) of x (..., in_ch, h, w)
    for a 3x3 circular convolution: row 3c + di holds rows di .. di+h-1 of
    x[c] wrap-padded by one, flattened, then two zero columns of slack.  So
    for j < w its column i*(w+2) + j + dj holds
    x[c, (i+di-1)%h, (j+dj-1)%w].  Leading axes are a stack of inputs."""
    *lead, c, h, w = x.shape
    n = h * (w + 2)
    rows = np.empty((*lead, c * 3, n + 2))
    rows[..., n:] = 0.0
    # r[c, di, i] is padded row i + di of x[c]: x row (i + di - 1) % h
    r = rows.reshape(*lead, c, 3, n + 2)[..., :n].reshape(*lead, c, 3, h,
                                                            w + 2)
    r[..., 1, :, 1:-1] = x
    r[..., 0, 1:, 1:-1], r[..., 0, 0, 1:-1] = x[..., :-1, :], x[..., -1, :]
    r[..., 2, :-1, 1:-1], r[..., 2, -1, 1:-1] = x[..., 1:, :], x[..., 0, :]
    r[..., 0], r[..., -1] = r[..., -2], r[..., 1]
    return rows


def _conv_rows(rows: np.ndarray, kernel: np.ndarray, h: int,
               w: int) -> np.ndarray:
    """Bias-free 3x3 circular convolution of the (in_ch, h, w) input whose
    row-shift matrix is `rows`: one GEMM per column offset dj and stacked
    input.  Returns (..., out_ch, h, w + 2) holding, for j < w,
    out[o,i,j] = sum_{c,di,dj} k[o,c,di,dj] x[c,(i+di-1)%h,(j+dj-1)%w];
    the last two columns of each row are slack."""
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


def forward(params: NetParams, x: np.ndarray,
            projector: Callable[[np.ndarray], np.ndarray] | None = None):
    """Residual forward pass out = x + U(x), or x + P(U(x)) with a projector,
    where U is the conv stack with ReLU between layers.

    x is one (h, w) image or a stack (k, h, w); a stack runs every layer
    as one batched product and calls the projector once on the stack of
    corrections, and each of its images comes out bit for bit as alone.
    Returns (out, cache).  The cache feeds `backward`: "rows" holds the
    `_row_shifts` matrix of each layer's input, "masks" the boolean ReLU
    mask (pre-activation > 0) of each layer but the last, in the
    (..., ch, h, w + 2) layout of `_conv_rows` with False on the slack
    columns.  Raises ValueError on a non-finite x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected an (h, w) image or a (k, h, w) stack, "
                         f"got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")
    h, w = x.shape[-2:]
    a = x[..., None, :, :]
    rows, masks = [], []
    last = len(params.kernels) - 1
    for l, (k, b) in enumerate(zip(params.kernels, params.biases)):
        rows.append(_row_shifts(a[..., :w]))
        a = _conv_rows(rows[-1], k, h, w)
        a += b[:, None, None]
        if l < last:
            a[..., w:] = 0.0
            masks.append(a > 0)
            np.maximum(a, 0.0, out=a)
    corr = a[..., 0, :, :w]
    out = x + (corr if projector is None else projector(corr))
    cache = {"rows": rows, "masks": masks, "projector": projector,
             "x_shape": x.shape}
    return out, cache


def backward(params: NetParams, cache: dict, grad_out: np.ndarray):
    """Exact gradients of the forward pass of one image.

    grad_out is the loss gradient with respect to the output; returns
    (grad_params, grad_in).  The projector, if any, must be linear and
    self-adjoint (orthogonal projections are).  ReLU subgradient at 0 is 0.
    Kernel gradients are taken against the cached row matrices.  The
    gradient stays in the (ch, h, w + 2) layout of `_conv_rows`; its slack
    columns hold 0 (the masks are False there), so they add nothing to
    those products.
    """
    grad_out = np.asarray(grad_out, dtype=float)
    if len(cache["x_shape"]) != 2:
        raise ValueError("backward takes the cache of one image, not of a "
                         "stack")
    if grad_out.shape != cache["x_shape"]:
        raise ValueError("grad_out shape does not match cached forward")
    if len(cache["rows"]) != len(params.kernels):
        raise ValueError("cache does not match parameter count")
    h, w = grad_out.shape
    g = np.zeros((1, h, w + 2))
    g[0, :, :w] = (grad_out if cache["projector"] is None
                   else cache["projector"](grad_out))
    grad_k = [None] * len(params.kernels)
    grad_b = [None] * len(params.kernels)
    for l in range(len(params.kernels) - 1, -1, -1):
        k, rows = params.kernels[l], cache["rows"][l]
        flat = g.reshape(len(g), -1)
        grad_k[l] = np.stack([flat @ rows[:, dj:dj + flat.shape[1]].T
                              for dj in range(3)], axis=-1).reshape(k.shape)
        grad_b[l] = g[:, :, :w].sum(axis=(1, 2))
        # the adjoint of a circular correlation is the correlation with
        # the flipped, channel-transposed kernel
        g = _conv_rows(_row_shifts(g[:, :, :w]),
                       k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, w)
        if l > 0:
            g *= cache["masks"][l - 1]
    grad_in = grad_out + g[0, :, :w]
    return NetParams(grad_k, grad_b), grad_in


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: NetParams
    v: NetParams
    step: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.0


def init_adam(params: NetParams, lr: float = 1e-3,
              weight_decay: float = 0.0) -> AdamState:
    zeros = NetParams([np.zeros_like(k) for k in params.kernels],
                      [np.zeros_like(b) for b in params.biases])
    return AdamState(m=zeros, v=zeros.copy(), lr=lr,
                     weight_decay=weight_decay)


def adam_step(params: NetParams, grads: NetParams, state: AdamState):
    """One Adam update with coupled L2 weight decay (grad += wd * param)."""
    t = state.step + 1
    new_p, new_m, new_v = [], [], []
    flat = zip(params.kernels + params.biases,
               grads.kernels + grads.biases,
               state.m.kernels + state.m.biases,
               state.v.kernels + state.v.biases)
    for p, g, m, v in flat:
        g = g + state.weight_decay * p
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        new_p.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    n = len(params.kernels)
    params2 = NetParams(new_p[:n], new_p[n:])
    state2 = replace(state,
                     m=NetParams(new_m[:n], new_m[n:]),
                     v=NetParams(new_v[:n], new_v[n:]),
                     step=t)
    return params2, state2


def layer_operator_norms(params: NetParams,
                         shape: tuple[int, int]) -> list[float]:
    """Exact operator norm of each conv layer (bias excluded) on a grid of
    `shape`: the largest singular value, over all 2-D DFT frequencies, of
    the out x in symbol of its taps wrapped onto the grid (Sedghi, Gupta &
    Long, ICLR 2019).  The taps are real, so the symbol at -f is the
    conjugate of the one at f and the half spectrum of rfft2 suffices.
    Each singular value is the root of the top eigenvalue of the smaller
    Gram matrix of the symbol S, S^H S or S S^H."""
    h, w = shape
    rows, cols = np.arange(3)[:, None] % h, np.arange(3)[None, :] % w
    norms = []
    for k in params.kernels:
        taps = np.zeros((h, w) + k.shape[:2])
        np.add.at(taps, (rows, cols), k.transpose(2, 3, 0, 1))
        s = np.fft.rfft2(taps, axes=(0, 1))
        sh = s.conj().swapaxes(-1, -2)
        gram = sh @ s if k.shape[0] >= k.shape[1] else s @ sh
        norms.append(float(np.sqrt(np.linalg.eigvalsh(gram)[..., -1].max())))
    return norms


def lipschitz_bound(params: NetParams, shape: tuple[int, int]) -> float:
    """Upper bound on Lip(id + P o U): 1 + product of conv layer norms
    (ReLU and orthogonal projections are 1-Lipschitz)."""
    return 1.0 + float(np.prod(layer_operator_norms(params, shape)))


_CKPT_MAGIC = b"nsnet-ckpt v1\n"


def _all_finite(params: NetParams) -> bool:
    return all(np.all(np.isfinite(a)) for a in params.kernels + params.biases)


def save_params(path, arch: Architecture, params: NetParams) -> None:
    """Write a versioned, byte-stable checkpoint (header + raw float64).
    Raises ValueError, writing nothing, on non-finite parameters."""
    if not _all_finite(params):
        raise ValueError(f"{path}: refusing to save non-finite parameters")
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
    Raises ValueError on a foreign, truncated or over-long file and on
    non-finite parameters."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")

        def read(size):
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"{path}: truncated checkpoint")
            return data

        layers, width = struct.unpack("<ii", read(8))
        arch = Architecture(layers=layers, width=width)
        kernels, biases = [], []
        for layer, chans in enumerate(arch.channels()):
            kshape = struct.unpack("<iiii", read(16))
            if kshape != chans + (3, 3):
                raise ValueError(f"{path}: layer {layer} kernel shape "
                                 f"{kshape} does not match {arch}")
            count = int(np.prod(kshape))
            kernels.append(np.frombuffer(read(8 * count),
                                         dtype="<f8").reshape(kshape).copy())
            (blen,) = struct.unpack("<i", read(4))
            if blen != chans[0]:
                raise ValueError(f"{path}: layer {layer} has {blen} biases, "
                                 f"expected {chans[0]}")
            biases.append(np.frombuffer(read(8 * blen),
                                        dtype="<f8").copy())
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last layer")
    params = NetParams(kernels, biases)
    if not _all_finite(params):
        raise ValueError(f"{path}: non-finite parameters")
    return arch, params
