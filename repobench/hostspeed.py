"""Host-speed sampling for timed phases.

The benchmark VM's speed drifts by tens of percent within seconds, with no
CPU steal (process time equals wall time), so a slowdown cannot be told
apart from a slower program by a clock alone.  While a timed phase runs, a
timer signal interrupts it every ``PERIOD_S`` and times a fixed ~2 ms kernel
of the same kind of work the simulators do: interpreter-bound dict code and
small NumPy calls.  The kernel's code lives in the benchmark directory, so
a change to the program under test never changes it.

``Sampler.clock()`` excludes the sampling time from the phase's duration,
and ``Sampler.factor()`` is ``NOMINAL_S`` over the trimmed mean of the
samples taken in a window of the phase -- below 1 when the host ran slower
than nominal.  A corrected time is ``seconds x factor``: the time the phase
would have taken on a host running the kernel in ``NOMINAL_S``.  Sampling
draws no random numbers and touches no program state, so it cannot change
an output.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Typical kernel duration on the 2-vCPU VM the workloads were tuned on.
# Only its constancy matters: parent and change use the same value.
NOMINAL_S = 0.0017

_BYTES = np.random.default_rng(20070625).integers(0, 256, size=(64, 64), dtype=np.uint8)


def _kernel() -> int:
    table: dict = {}
    for r in range(300):
        for k in range(32):
            table[k] = table.get(k, 0) + (r ^ k)
    acc = len(table)
    for _ in range(5):
        acc += int(np.count_nonzero(_BYTES & ~np.roll(_BYTES, 1, axis=0)))
    return acc


class Sampler:
    """Samples host speed from ``SIGALRM`` while its ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list = []  # (clock() at the sample, kernel seconds)
        self._spent = 0.0
        self._previous = None

    def _take(self, *_signal_args) -> None:
        at = self.clock()
        start = time.perf_counter()
        _kernel()
        duration = time.perf_counter() - start
        self.samples.append((at, duration))
        self._spent += duration

    def clock(self) -> float:
        """Seconds like ``perf_counter``, minus the time spent sampling."""
        return time.perf_counter() - self._spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a phase shorter than one period
            self._take()
        return False

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """``NOMINAL_S`` over the mean of the middle 80% of the samples taken
        between ``start`` and ``end`` (``clock()`` values), or of all samples
        when none falls in that window."""
        window = [d for at, d in self.samples if start <= at <= end]
        ordered = sorted(window or [d for _, d in self.samples])
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return NOMINAL_S / statistics.fmean(kept)
