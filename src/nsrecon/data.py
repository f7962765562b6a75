"""Synthetic square-patch dataset and measurement simulation.

In-distribution samples carry a patch of alternating 1/0 horizontal stripes,
out-of-distribution samples a constant 0.5 patch.  Patch positions are drawn
on even pixel coordinates; everything is deterministic per seed.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .linops import MatvecOp

KINDS = ("ID", "OOD")


@dataclass(frozen=True)
class SampleSpec:
    image_size: int = 64
    patch_size: int = 20
    kind: str = "ID"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.patch_size > self.image_size:
            raise ValueError("patch must fit in the image")


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")


def _square_sample(spec: SampleSpec):
    """`gen_square_sample`'s image and its patch position (row, col)."""
    rng = np.random.default_rng(spec.seed)
    n_even = (spec.image_size - spec.patch_size) // 2 + 1
    row = int(rng.integers(0, n_even)) * 2
    col = int(rng.integers(0, n_even)) * 2
    x = np.zeros((spec.image_size, spec.image_size))
    if spec.kind == "ID":
        patch = np.zeros((spec.patch_size, spec.patch_size))
        patch[0::2, :] = 1.0
    else:
        patch = np.full((spec.patch_size, spec.patch_size), 0.5)
    x[row:row + spec.patch_size, col:col + spec.patch_size] = patch
    return x, (row, col)


def gen_square_sample(spec: SampleSpec) -> np.ndarray:
    """Zero background with one square patch at a random even position.

    ID: rows inside the patch alternate 1, 0 starting with 1 at the top.
    OOD: constant 0.5.
    """
    return _square_sample(spec)[0]


def polar_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal draws via the Marsaglia polar method.

    Built on the generator's uniform stream so that reimplementations on any
    uniform RNG match statistically (bitwise identity is not a goal).
    """
    out = np.empty(n)
    have = 0
    while have < n:
        u = rng.uniform(-1.0, 1.0, size=2 * (n - have))
        v = rng.uniform(-1.0, 1.0, size=2 * (n - have))
        s = u * u + v * v
        accepted = np.flatnonzero((s > 0) & (s < 1))
        # draws are u * factor, then v * factor, over accepted pairs: only
        # the prefix kept is transformed; it reaches v if few are accepted
        take = accepted[:n - have]
        s = s[take]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        out[have:have + take.size] = u[take] * factor
        have += take.size
        rest = take[:n - have]
        out[have:have + rest.size] = v[rest] * factor[:rest.size]
        have += rest.size
    return out


def gen_measurement(op: MatvecOp, x: np.ndarray, noise: NoiseSpec,
                    support: np.ndarray | None = None):
    """Noisy measurement y = A x + z with Gaussian noise of sd sigma.

    When `support` (a boolean array over the output grid) is given, noise is
    added only there - for stripe-masked operators that is the set of
    observed columns, since the unobserved entries are identically zero.
    Returns (y, delta_est) with delta_est = |z|.
    """
    y = op.apply(np.asarray(x, dtype=float))
    if noise.sigma == 0.0:
        return y, 0.0
    rng = np.random.default_rng(noise.seed)
    z = noise.sigma * polar_gaussian(rng, y.size).reshape(y.shape)
    if support is not None:
        z = z * support
    return y + z, float(np.linalg.norm(z))


@dataclass
class Sample:
    x: np.ndarray
    y: np.ndarray
    kind: str
    seed: int
    position: tuple[int, int]
    delta: float


_NOISE_SEED_OFFSET = 7777777  # disjoint stream from the image seeds


def make_dataset(n: int, kind: str, base_seed: int, op: MatvecOp,
                 sigma: float = 0.05, support: np.ndarray | None = None,
                 patch_size: int = 20) -> list[Sample]:
    """n independent (x, y) samples; sample i uses seed base_seed + i.
    The images are square, of the size op.in_shape[0]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    samples = []
    for i in range(n):
        seed = base_seed + i
        spec = SampleSpec(image_size=op.in_shape[0], patch_size=patch_size,
                          kind=kind, seed=seed)
        x, position = _square_sample(spec)
        y, delta = gen_measurement(
            op, x, NoiseSpec(sigma=sigma, seed=seed + _NOISE_SEED_OFFSET),
            support=support)
        samples.append(Sample(x=x, y=y, kind=kind, seed=seed,
                              position=position, delta=delta))
    return samples


def write_pgm16(path, image: np.ndarray, data_range: float = 1.0) -> None:
    """16-bit binary PGM, values clamped to [0, data_range]; raises
    ValueError on non-finite entries, which have no pixel value."""
    image = np.asarray(image, dtype=float)
    if not np.all(np.isfinite(image)):
        raise ValueError("image has non-finite entries")
    scaled = np.clip(image / data_range, 0.0, 1.0)
    pix = np.round(scaled * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode())
        fh.write(pix.tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM")
        w, h = map(int, fh.readline().split())
        maxval = int(fh.readline())
        dtype = ">u2" if maxval > 255 else "u1"
        data = np.frombuffer(fh.read(), dtype=dtype)[:h * w]
    return data.reshape(h, w).astype(float) / maxval


def export_dataset(samples: list[Sample], out_dir,
                   data_range: float = 1.0) -> str:
    """Dump images as PGM plus a CSV manifest; returns the manifest path.
    The PGMs clamp to [0, data_range], so each measurement y is also
    written losslessly, as float64 .npy (manifest column y_npy)."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "kind", "seed", "patch_row", "patch_col",
                         "delta", "x_file", "y_file", "y_npy"])
        for i, s in enumerate(samples):
            x_file = f"x_{i:04d}.pgm"
            y_file = f"y_{i:04d}.pgm"
            y_npy = f"y_{i:04d}.npy"
            write_pgm16(os.path.join(out_dir, x_file), s.x, data_range)
            write_pgm16(os.path.join(out_dir, y_file), s.y, data_range)
            np.save(os.path.join(out_dir, y_npy),
                    np.asarray(s.y, dtype=np.float64))
            writer.writerow([i, s.kind, s.seed, s.position[0], s.position[1],
                             f"{s.delta:.17g}", x_file, y_file, y_npy])
    return manifest
