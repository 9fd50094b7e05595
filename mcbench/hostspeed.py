"""Host speed reference, so that timings from a shared machine compare.

On a shared 2-core VM the same work runs at speeds that differ by
up to 2x, switching within seconds, while the process keeps its CPU
(CPU time tracks wall time) - other tenants slow the core down.  A
fixed calibration slice, written here and independent of qecbench, is
timed every SLICE_INTERVAL_S between trials.  Its mean time against
REFERENCE_SLICE_S is the host's slowdown in that stretch, and dividing
a measured time by it gives the time the work would take on a host
where the slice takes REFERENCE_SLICE_S.  A change to qecbench moves
the measured time and leaves the slice alone, so it shows in full.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from qecbench import bench

REFERENCE_SLICE_S = 1e-3  # about the slice's time on a shared 2-core 2.0 GHz VM
SLICE_INTERVAL_S = 0.02

_GRID = np.linspace(-3.0, 3.0, 128)


def calibration_slice() -> float:
    """Small-array numpy and interpreter work, like a decoding trial."""
    acc = 0.0
    for i in range(100):
        b = np.tanh(_GRID * (1.0 + (i % 5) * 0.01))
        picked = np.nonzero(b > 0.5)[0]
        acc += float(b[picked].sum()) + sum(range(50))
    return acc


class HostSpeed:
    """Calibration slices run so far, and the slowdown they show."""

    def __init__(self):
        self.seconds = 0.0
        self.slices = 0
        self._last = perf_counter()

    def sample(self) -> float:
        """Run one slice now; returns its seconds."""
        start = perf_counter()
        calibration_slice()
        self._last = end = perf_counter()
        self.seconds += end - start
        self.slices += 1
        return end - start

    def tick(self) -> None:
        """Run a slice when SLICE_INTERVAL_S has passed since the last."""
        if perf_counter() - self._last >= SLICE_INTERVAL_S:
            self.sample()

    def snapshot(self) -> tuple[float, int]:
        return self.seconds, self.slices

    @staticmethod
    def slowdown(before: tuple[float, int], after: tuple[float, int]) -> float:
        """Mean slice time between two snapshots over REFERENCE_SLICE_S."""
        seconds, slices = after[0] - before[0], after[1] - before[1]
        return seconds / slices / REFERENCE_SLICE_S

    @contextmanager
    def between_trials(self):
        """Tick before every trial of the run_benchmark calls made inside."""
        trial_rng = vars(bench)["_trial_rng"]

        def ticking(seed, rate_index, trial):
            self.tick()
            return trial_rng(seed, rate_index, trial)

        bench._trial_rng = ticking
        try:
            yield self
        finally:
            bench._trial_rng = trial_rng
