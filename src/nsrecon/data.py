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
PATCH_SIZE = 20  # the side of every sample's patch, unless patch_size is set


def _square_sample(size: int, patch_size: int, kind: str, seed: int):
    """Zero background with one square patch at a random even position,
    and that position (row, col).  ID: rows inside the patch alternate 1, 0
    starting with 1 at the top.  OOD: constant 0.5."""
    rng = np.random.default_rng(seed)
    n_even = (size - patch_size) // 2 + 1
    row = int(rng.integers(0, n_even)) * 2
    col = int(rng.integers(0, n_even)) * 2
    x = np.zeros((size, size))
    patch = x[row:row + patch_size, col:col + patch_size]
    if kind == "ID":
        patch[0::2] = 1.0
    else:
        patch[:] = 0.5
    return x, (row, col)


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


def _measurement(op: MatvecOp, x: np.ndarray, sigma: float, seed: int,
                 support: np.ndarray):
    """y = A x + z, z Gaussian of sd sigma kept on `support` (0/1 over the
    output grid: the observed entries), and delta = |z|."""
    y = op.apply(x)
    rng = np.random.default_rng(seed)
    z = sigma * polar_gaussian(rng, y.size).reshape(y.shape) * support
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
                 sigma: float, support: np.ndarray,
                 patch_size: int = PATCH_SIZE) -> list[Sample]:
    """n independent (x, y) samples; sample i uses seed base_seed + i.
    The images are square, of the size op.in_shape[0], with a patch of
    kind ID (stripes) or OOD (constant); see `_square_sample`.  Their
    data carry noise of sd sigma on `support`; see `_measurement`."""
    size = op.in_shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if not 1 <= patch_size <= size:
        raise ValueError(f"need 1 <= patch_size <= {size} (the patch must "
                         f"fit in the image), got {patch_size}")
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and nonnegative")
    samples = []
    for seed in range(base_seed, base_seed + n):
        x, position = _square_sample(size, patch_size, kind, seed)
        y, delta = _measurement(op, x, sigma, seed + _NOISE_SEED_OFFSET,
                                support)
        samples.append(Sample(x=x, y=y, kind=kind, seed=seed,
                              position=position, delta=delta))
    return samples


def write_pgm16(path, image: np.ndarray) -> None:
    """16-bit binary PGM of a 2-D image, values clamped to [0, 1]; raises
    ValueError on another shape or on non-finite entries, which have no
    pixel value."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"a PGM holds a 2-D image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image has non-finite entries")
    pix = np.round(np.clip(image, 0.0, 1.0) * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode())
        fh.write(pix.tobytes())


def write_csv(path, rows, columns=()) -> None:
    """A table in the csv module's default dialect: a header of the first
    row's keys (`columns` without rows), then each row dict, floats by repr."""
    if not (rows or columns):
        raise ValueError(f"{path}: a table needs rows or column names")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]) if rows else columns)
        writer.writeheader()
        writer.writerows(rows)


def export_dataset(samples: list[Sample], out_dir) -> str:
    """Dump images as PGM plus a CSV manifest; returns the manifest path.
    The PGMs clamp to [0, 1], so each measurement y is also
    written losslessly, as float64 .npy (manifest column y_npy)."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i, s in enumerate(samples):
        row = {"index": i, "kind": s.kind, "seed": s.seed,
               "patch_row": s.position[0], "patch_col": s.position[1],
               "delta": s.delta, "x_file": f"x_{i:04d}.pgm",
               "y_file": f"y_{i:04d}.pgm", "y_npy": f"y_{i:04d}.npy"}
        write_pgm16(os.path.join(out_dir, row["x_file"]), s.x)
        write_pgm16(os.path.join(out_dir, row["y_file"]), s.y)
        np.save(os.path.join(out_dir, row["y_npy"]),
                np.asarray(s.y, dtype=np.float64))
        rows.append(row)
    manifest = os.path.join(out_dir, "manifest.csv")
    write_csv(manifest, rows)
    return manifest
