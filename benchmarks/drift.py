"""Host-speed drift correction for wall-clock timings.

The host's speed moves by tens of percent within seconds, and CPU time tracks
wall time, so neither clock alone gives a stable figure. A fixed calibration
kernel is timed repeatedly while the program under test is suspended. It
updates a vector, makes small-array numpy calls and formats floats, like the
simulator's scan, its probes and search, and its CSV writing. A one-shot
interval timer interrupts the program every ``INTERVAL_S`` seconds of wall
time and the signal handler runs the kernel.

Each stretch of program time between two kernels is scaled by
``NOMINAL_KERNEL_S`` over the mean of its two flanking kernel times, so a
corrected second is a second at the speed where the kernel takes
``NOMINAL_KERNEL_S``. Raw program time (kernels excluded, uncorrected) is kept
beside every corrected value.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1
NOMINAL_KERNEL_S = 0.006

_rng = np.random.default_rng(12345)
_VECTOR = np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 8192))
_SMALL = np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 64))
_FLOATS = _rng.uniform(0.0, 100.0, 2000).tolist()


def _kernel_unit() -> None:
    acc = np.ones_like(_VECTOR)
    for k in range(64):
        acc *= _VECTOR
        acc += _SMALL[k]
    total = 0.0
    for k in range(300):
        total += abs(np.sum(_SMALL * _SMALL[k % 64]))
    ",".join(f"{v:.12g}" for v in _FLOATS)


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _kernel_unit()
    _kernel_unit()
    return time.perf_counter() - t0


class ProgramClock:
    """Raw and corrected program time from idle-interval marks.

    ``marks`` are sorted, non-overlapping ``(start, end, kernel_s)`` intervals
    during which the program was idle; ``kernel_s`` is the kernel's time, or
    None for an interval spent on benchmark work that gives no speed sample.
    Program time is everything between the first mark's end and the last
    mark's start that no mark covers.
    """

    def __init__(self, marks):
        samples = [(s, k) for s, _, k in marks if k is not None]
        if len(marks) < 2 or not samples:
            raise ValueError("need at least two marks and one kernel sample")
        starts = [s for s, _ in samples]
        self._seg = []     # (start, end, factor) of each stretch of program time
        self._cum = [0.0]  # corrected time before each stretch, then the total
        self.raw_s = 0.0
        for (_, e0, _), (s1, _, _) in zip(marks, marks[1:]):
            if s1 < e0:
                raise ValueError("marks overlap")
            # nearest kernel samples at or before the stretch and after it
            i = bisect.bisect_right(starts, e0) - 1
            before = samples[max(i, 0)][1]
            after = samples[min(i + 1, len(samples) - 1)][1]
            factor = NOMINAL_KERNEL_S / (0.5 * (before + after))
            self._seg.append((e0, s1, factor))
            self._cum.append(self._cum[-1] + (s1 - e0) * factor)
            self.raw_s += s1 - e0
        self.corrected_s = self._cum[-1]
        self.kernel_s = sum(k for _, k in samples)
        self.samples = len(samples)

    def at(self, t: float) -> float:
        """Corrected program time from the first mark up to t."""
        i = bisect.bisect_right(self._seg, (t, math.inf)) - 1
        if i < 0:
            return 0.0
        e0, s1, factor = self._seg[i]
        return self._cum[i] + (min(t, s1) - e0) * factor

    def corrected(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)


class DriftSampler:
    """Interleaves calibration kernels with the program via SIGALRM."""

    def __init__(self):
        self.marks: list[tuple[float, float, float | None]] = []
        self._armed = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, t1 - t0))

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _arm(self) -> None:
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _disarm(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    @contextmanager
    def running(self):
        """Sample before, during (every interval) and after the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        self._arm()
        try:
            yield self
        finally:
            self._disarm()
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @contextmanager
    def excluded(self):
        """Benchmark work inside a running block that is not program time."""
        self._disarm()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.marks.append((t0, time.perf_counter(), None))
            self._arm()

    def clock(self) -> ProgramClock:
        return ProgramClock(self.marks)
