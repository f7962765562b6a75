"""Calibrated timing.

The CPU of a shared virtual machine runs at different speeds for tens of
seconds at a time: on the 2-vCPU x86-64 VM where this benchmark was
defined, a fixed numpy loop took 5.5 ms in some minutes and 8 ms in
others.  A fixed reference kernel that does not use nsrecon runs between
measured calls, for about REF_SHARE of their time, and a run's wall times
are scaled by REF_NOMINAL_S over the run's mean reference time (leaving
out the slowest REF_TRIM of the reference runs, which a preemption can
stretch).  The result is in calibrated seconds: the time the calls would
take on a machine where the reference kernel takes REF_NOMINAL_S, about
its time on that VM.  A change to nsrecon moves it; a change in machine
speed moves the reference too and cancels out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.006
REF_SHARE = 0.1
REF_TRIM = 0.1


class Clock:
    def __init__(self):
        rng = np.random.default_rng(20260117)
        self._matrix = rng.standard_normal((256, 256)) / 16.0
        self._image = rng.standard_normal((6, 64, 64))
        self._mix = rng.standard_normal((6, 6))
        self.references: list[float] = []
        self._owed = 0.0
        self._kernel()  # the first call pays for lazy set-up in numpy

    def _kernel(self) -> None:
        """Dense 256x256 matrix-vector products, channel mixing of rolled
        64x64 images and plain interpreter work: the kinds of work that
        dominate the workloads, which the CPU's speed changes can affect
        differently."""
        y = np.ones(256)
        for _ in range(200):
            y = self._matrix @ y
            y /= np.linalg.norm(y)
        for _ in range(20):
            np.tensordot(self._mix, np.roll(self._image, 1, axis=(1, 2)),
                         axes=(1, 0))
        total = 0
        for i in range(10000):
            total += i * i % 7

    def sample(self, wall_s: float) -> None:
        """Account for a call that took `wall_s`; run the reference kernel
        once for every REF_NOMINAL_S / REF_SHARE of calls since its last
        run, so that calls much shorter than it run back to back."""
        self._owed += wall_s * REF_SHARE / REF_NOMINAL_S
        while self._owed >= 1.0:
            self._owed -= 1.0
            t0 = perf_counter()
            self._kernel()
            self.references.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor from wall seconds to calibrated seconds for this run."""
        if not self.references:
            self.sample(REF_NOMINAL_S / REF_SHARE)
        kept = sorted(self.references)
        kept = kept[:max(1, round(len(kept) * (1.0 - REF_TRIM)))]
        return REF_NOMINAL_S * len(kept) / sum(kept)
