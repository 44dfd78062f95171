"""Machine-speed sampler for the untraced passes.

The benchmark runs on a few cores of a shared host whose speed flips
between a fast and a slow state (about 1.4x apart) on a scale of tenths of
seconds to minutes.  A single library call of several seconds spans both
states in varying shares, so its raw time says as much about the host as
about the library.

``Sampler.start`` arms an interval timer; every ``INTERVAL_S`` its signal
handler runs a fixed kernel of frozenset unions and intersections, dict
inserts and small-integer arithmetic (the operations the solver spends its
time on) twice. It records when it ran, how long the second, warm run took
(the first only refills the caches the library's code evicted, so the
sample depends less on what the library was doing) and how long the handler
took in all. Python runs the handler between bytecodes of the main thread,
so the samples fall inside long library calls too. ``Sampler.normalize``
turns the raw time of an interval into seconds at the reference speed: the
time minus the handler's own, times ``KERNEL_REF_S`` over the mean kernel
time sampled in and around the interval, raised to ``SENSITIVITY``. The
library cannot change the kernel, so a faster library still reads faster.

The mix matters: the host's slow state slows set and dict work more than it
slows the library, and plain arithmetic less. Over eight passes of each of
three workloads, the slope of log pass time against log kernel time was
0.84 to 1.01 for this kernel, 0.73 to 1.09 for a kernel of its set work
alone and 0.91 to 1.29 for one of its arithmetic alone. ``SENSITIVITY`` is
the mean for this kernel, rounded. With 1 in its place, ten runs of
``certificates``, half of them while the host ran 1.7x slow, read 5% low
in the slow half.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.01
# samples this close to an interval also count for its speed
WINDOW_S = 0.05
# kernel time, rounded, when the host is fast, on the machine the benchmark
# was written on (2 shared CPUs, Python 3.11); it only sets the unit
KERNEL_REF_S = 100e-6
# slope of log library time against log kernel time as the host's speed
# changes: the library slows a little less than the kernel
SENSITIVITY = 0.9

_POOL = [frozenset(range(i % 40, i % 40 + 6)) for i in range(500)]


def kernel() -> None:
    d = {}
    pool = _POOL
    acc = 0
    for i in range(0, 496, 8):
        x = pool[i] | pool[i + 3]
        d[x] = len(x & pool[i + 5])
        for j in range(5):
            acc += (i * j) ^ (acc >> 3)


def at_reference(raw_s: float, kernel_s: float) -> float:
    """``raw_s`` seconds, measured while the kernel took ``kernel_s``, as
    seconds at the reference speed."""
    return raw_s * (KERNEL_REF_S / kernel_s) ** SENSITIVITY


class Sampler:
    """Kernel samples of one process; the timer and its signal are
    process-wide, so start at most one."""

    def __init__(self):
        self.start_t = array("d")  # handler start
        self.kernel_s = array("d")  # warm kernel run
        self.handler_dur = array("d")  # whole handler
        self.started = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t = perf_counter()
        kernel()
        end = perf_counter()
        self.start_t.append(t0)
        self.kernel_s.append(end - t)
        self.handler_dur.append(end - t0)

    def start(self) -> None:
        self.started = perf_counter()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_kernel_s(self) -> float:
        return statistics.fmean(self.kernel_s) if self.kernel_s else KERNEL_REF_S

    def handler_s(self, a: float, b: float) -> float:
        """Time the handler spent in samples that started in [a, b)."""
        return sum(self.handler_dur[bisect_left(self.start_t, a):bisect_left(self.start_t, b)])

    def normalize(self, a: float, b: float) -> float:
        """Seconds the interval [a, b) would take at the reference speed."""
        lo = bisect_left(self.start_t, a - WINDOW_S)
        hi = bisect_left(self.start_t, b + WINDOW_S)
        speed = statistics.fmean(self.kernel_s[lo:hi]) if hi > lo else self.mean_kernel_s()
        return at_reference(b - a - self.handler_s(a, b), speed)
