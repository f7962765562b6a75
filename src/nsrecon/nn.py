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


def _taps(x: np.ndarray) -> np.ndarray:
    """Tap matrix (in_ch*9, h*w) of x (in_ch, h, w) for a 3x3 circular
    convolution: row 9c + 3di + dj holds x[c, (i+di-1)%h, (j+dj-1)%w]."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="wrap")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w),
                                                       axis=(1, 2))
    return windows.reshape(c * 9, h * w)


def conv2d_circular(x: np.ndarray, kernel: np.ndarray,
                    bias: np.ndarray) -> np.ndarray:
    """3x3 convolution with circular padding.

    x: (in_ch, h, w); kernel: (out_ch, in_ch, 3, 3); bias: (out_ch,).
    out[o,i,j] = bias[o] + sum_{c,di,dj} k[o,c,di,dj] x[c,(i+di-1)%h,(j+dj-1)%w]
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or kernel.ndim != 4 or kernel.shape[1] != x.shape[0]:
        raise ValueError("channel counts do not match")
    out = kernel.reshape(kernel.shape[0], -1) @ _taps(x)
    return out.reshape((kernel.shape[0],) + x.shape[1:]) + bias[:, None, None]


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

    Returns (out, cache); the cache, with each layer's input and
    pre-activation, feeds `backward`.  Raises ValueError on a non-finite x.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")
    a = x[None, :, :]
    inputs, preacts = [], []
    last = len(params.kernels) - 1
    for l, (k, b) in enumerate(zip(params.kernels, params.biases)):
        inputs.append(a)
        z = conv2d_circular(a, k, b)
        preacts.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    corr = a[0] if projector is None else projector(a[0])
    out = x + corr
    cache = {"inputs": inputs, "preacts": preacts, "projector": projector,
             "x_shape": x.shape}
    return out, cache


def backward(params: NetParams, cache: dict, grad_out: np.ndarray):
    """Exact gradients of the forward pass.

    grad_out is the loss gradient with respect to the output; returns
    (grad_params, grad_in).  The projector, if any, must be linear and
    self-adjoint (orthogonal projections are).  ReLU subgradient at 0 is 0.
    """
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.shape != cache["x_shape"]:
        raise ValueError("grad_out shape does not match cached forward")
    if len(cache["inputs"]) != len(params.kernels):
        raise ValueError("cache does not match parameter count")
    g = grad_out
    if cache["projector"] is not None:
        g = cache["projector"](g)
    g = g[None, :, :]
    grad_k = [None] * len(params.kernels)
    grad_b = [None] * len(params.kernels)
    for l in range(len(params.kernels) - 1, -1, -1):
        k = params.kernels[l]
        grad_k[l] = (g.reshape(g.shape[0], -1)
                     @ _taps(cache["inputs"][l]).T).reshape(k.shape)
        grad_b[l] = g.sum(axis=(1, 2))
        # the adjoint of a circular correlation is the correlation with
        # the flipped, channel-transposed kernel
        g = conv2d_circular(g, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                            np.zeros(k.shape[1]))
        if l > 0:
            g = g * (cache["preacts"][l - 1] > 0)
    grad_in = grad_out + g[0]
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


def grad_check(arch: Architecture, seed: int = 0, eps: float = 1e-5,
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
    params = init_params(arch, seed)
    x = rng.standard_normal(shape)
    t = rng.standard_normal(shape)

    def loss(p):
        out, _ = forward(p, x, projector)
        return float(np.sum((out - t) ** 2))

    out, cache = forward(params, x, projector)
    grads, _ = backward(params, cache, 2.0 * (out - t))

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


def layer_operator_norms(params: NetParams,
                         shape: tuple[int, int]) -> list[float]:
    """Exact operator norm of each conv layer (bias excluded) on a grid of
    `shape`: the largest singular value, over all 2-D DFT frequencies, of
    the out x in symbol of its taps wrapped onto the grid (Sedghi, Gupta &
    Long, ICLR 2019).  The taps are real, so the symbol at -f is the
    conjugate of the one at f and the half spectrum of rfft2 suffices."""
    h, w = shape
    rows, cols = np.arange(3)[:, None] % h, np.arange(3)[None, :] % w
    norms = []
    for k in params.kernels:
        taps = np.zeros((h, w) + k.shape[:2])
        np.add.at(taps, (rows, cols), k.transpose(2, 3, 0, 1))
        symbol = np.fft.rfft2(taps, axes=(0, 1))
        norms.append(float(np.linalg.norm(symbol, 2, axis=(-2, -1)).max()))
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
