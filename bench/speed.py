"""Host-speed reference for the benchmark's timings.

The host this benchmark runs on is shared: its speed drifts by up to a
factor of two over minutes, with the process neither descheduled nor
throttled in a way its CPU time would show.  Raw wall times of the same
code then spread between runs far more than any change worth detecting.

So every timed span is paired with samples of a fixed stdlib-only
reference burst (``burst``: Fraction elimination and an integer loop, the
kinds of work ``fdc`` does), taken right before the span and, through an
interval timer, every ``PERIOD_S`` inside it.  The time the samples
themselves take is subtracted from the span.  The span's
normalised time is ``raw * REF_BURST_S / mean(sample times)``: the time it
would take at the speed where one burst takes ``REF_BURST_S``.  The burst
does not touch ``fdc``, so a change to ``fdc`` moves the normalised time
exactly as it moves the raw time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

# A burst took 1.0-1.8 ms on the 2-vCPU Intel Xeon VM the benchmark was tuned
# on; normalised times are given at 1.5 ms per burst.
REF_BURST_S = 0.0015
PERIOD_S = 0.01

_MATRIX = [[(3 * i + 5 * j * j + 7) % 11 - 5 + 13 * (i == j) for j in range(5)]
           for i in range(5)]


def _fraction_inverse() -> List[List[Fraction]]:
    n = len(_MATRIX)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(_MATRIX)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return work


def _int_loop() -> int:
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % 1000003
    return s


def burst() -> float:
    """Seconds one reference burst takes now."""
    t0 = perf_counter()
    _fraction_inverse()
    _int_loop()
    return perf_counter() - t0


class SpeedSampler:
    """Times spans against reference bursts taken before and inside them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.sampling_s = 0.0  # wall time spent inside the timer handler
        self._old_handler = None

    def _on_timer(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.samples.append(burst())
        self.sampling_s += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """(result, raw seconds, normalised seconds) of ``fn()``."""
        self._on_timer(None, None)
        first, sampled = len(self.samples) - 1, self.sampling_s
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0 - (self.sampling_s - sampled)
        return result, raw, raw * REF_BURST_S / statistics.fmean(self.samples[first:])
