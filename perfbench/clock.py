"""Time normalised to a reference machine speed.

On a shared machine the speed of one core swings by a third or more within
seconds, as neighbours come and go, and wall times spread too widely to
compare two commits.  `Clock` measures that speed while the work runs: a
timer signal every INTERVAL_S runs a fixed pure-Python calibration kernel
(about 2 ms) and records how long it took.  Work done in an interval
is the interval's length times REF_KERNEL_S / (the kernel's duration near
it), so a second of normalised time is a second of work at the speed where
the kernel takes REF_KERNEL_S.  The kernel's own time is left out of every
interval.

The kernel is half integer arithmetic and half a recursive walk that
allocates tuples and looks up a dict.  On a slow core the first alone
slows less than lfport's work and the second alone more; together they
follow it.  On a 2-vCPU Xeon VM where 10-second means of a transport
decision and of a small `verify_minimization` spread by 20% (distance
between quartiles over median), their normalised means spread by 2-4%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
REF_KERNEL_S = 0.002  # about the kernel's time on an idle 2.1 GHz Xeon core
_SMOOTH = 5  # samples in the running median of kernel durations


def _tree(depth: int, i: int):
    if depth == 0:
        return ("leaf", i % 5)
    return ("node", i % 3, tuple(_tree(depth - 1, 3 * i + k) for k in range(3)))


_TREE = _tree(6, 1)


def _walk(t, env: dict):
    if t[0] == "leaf":
        return env.get(t[1], t[1])
    return (t[1],) + tuple(_walk(k, env) for k in t[2])


def kernel() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    keys = {_walk(_TREE, {0: 1, 2: 3}), _walk(_TREE, {1: 0})}
    return s + len(keys)


class Clock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] | None = None

    def start(self) -> None:
        """Sample now and every INTERVAL_S until `stop`."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def factors(self) -> list[float]:
        """Speed factor after each sample: REF_KERNEL_S over the running
        median of the kernel's duration."""
        if self._factors is None:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            half = _SMOOTH // 2
            self._factors = [
                REF_KERNEL_S / statistics.median(durations[max(0, i - half) : i + half + 1])
                for i in range(len(durations))
            ]
        return self._factors

    def normalised(self, a: float, b: float) -> float:
        """Work done between perf_counter() readings a and b, in seconds at
        the reference speed."""
        factors = self.factors()
        # Gap i runs from the end of sample i - 1 to the start of sample i
        # (gap 0 from the beginning of time); it is worked at the speed of the
        # sample nearest to it.
        total = 0.0
        i = bisect.bisect_right(self.ends, a)
        lo = a
        while lo < b:
            hi = min(b, self.starts[i]) if i < len(self.starts) else b
            if hi > lo:
                total += (hi - lo) * factors[min(i, len(factors) - 1)]
            if i >= len(self.starts):
                break
            lo = max(lo, self.ends[i])
            i += 1
        return total
