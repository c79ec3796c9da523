"""Times in reference seconds, corrected for the speed of a shared CPU.

On a shared machine the speed of one core drifts by a factor of two or
more over tens of seconds, which swamps the differences the benchmark
is meant to show.  The untraced child therefore runs a fixed
calibration kernel (pure Python, the same kinds of operations as the
library's hot loops: bitmask closure over a Cayley table) every
PERIOD_S seconds from a SIGALRM handler, on the thread doing the work.
An interval of raw duration T is reported as

    (T - kernel time inside it) * K_REF_S * mean(1 / kernel time)

over the kernel runs inside it and SMOOTH more on either side: the seconds
the same work would take on a CPU that runs the kernel in K_REF_S.
Both sides of a comparison run the same kernel, so the correction never
favours one of them.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from time import perf_counter

K_REF_S = 0.003
PERIOD_S = 0.2
# Kernel runs taken on each side of an interval.  A single run jitters by
# several percent; short intervals would inherit that jitter.
SMOOTH = 2

_PERMS = sorted(itertools.permutations(range(4)))
_INDEX = {p: i for i, p in enumerate(_PERMS)}
_S4 = tuple(tuple(_INDEX[tuple(q[x] for x in p)] for q in _PERMS) for p in _PERMS)


def _closure(seed: int) -> int:
    t = _S4
    mask = 1
    members = [0]
    queue = [x for x in range(24) if seed >> x & 1]
    while queue:
        x = queue.pop()
        if mask >> x & 1:
            continue
        mask |= 1 << x
        members.append(x)
        for y in members:
            for z in (t[x][y], t[y][x]):
                if not mask >> z & 1:
                    queue.append(z)
    return mask


def kernel() -> float:
    """Run the calibration kernel once; its duration in seconds."""
    t0 = perf_counter()
    found = set()
    for i in range(1, 24):
        for j in range(i, 24, 3):
            found.add(_closure(1 << i | 1 << j))
    return perf_counter() - t0


def scale(durations) -> float:
    """K_REF_S * mean(1 / d): converts raw seconds to reference seconds."""
    return K_REF_S * sum(1.0 / d for d in durations) / len(durations)


class Sampler:
    """Kernel runs every PERIOD_S seconds while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.kernel_total = 0.0

    def _sample(self, *_signal) -> None:
        t0 = perf_counter()
        d = kernel()
        self.starts.append(t0)
        self.durations.append(d)
        self.kernel_total += d

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """(time, kernel time so far), read without a kernel run between."""
        while True:
            before = self.kernel_total
            t = perf_counter()
            if self.kernel_total == before:
                return t, before

    def reference_seconds(self, start_mark, end_mark) -> float:
        (a, ka), (b, kb) = start_mark, end_mark
        lo = max(bisect.bisect_right(self.starts, a) - SMOOTH, 0)
        hi = bisect.bisect_right(self.starts, b) + SMOOTH
        return ((b - a) - (kb - ka)) * scale(self.durations[lo:hi])
