"""Host-speed calibration for the reported times.

The hosts this benchmark runs on are shared and their speed drifts: a fixed
loop runs up to twice as slow for stretches of seconds, the same `run_suite`
call has taken 1.2 s and 1.9 s a minute apart, and raw wall times of runs
with identical code spread by more than any useful regression bound.

So while a run measures, an interval timer interrupts it every INTERVAL_S and
times a short fixed kernel written in the patterns srclab spends its time in
(jet-style arithmetic on small numpy arrays, regex tokenizing, a 3x3 inverse
and einsum, array printing).  Each reported duration is

    (wall time - time spent in those samples) * NOMINAL_S / host

where ``host`` is the trimmed mean kernel time sampled within WINDOW_S of the
span: the time the operation would take on a host where the kernel takes
NOMINAL_S.  Samples land inside long calls too, so a state change halfway
through a two-second call is seen.  Only host speed is divided out: the
kernel uses no srclab code, so a change to srclab moves the reported times
fully.  The raw wall times are printed beside the calibrated ones.
"""
from __future__ import annotations

import bisect
import re
import signal
import time

import numpy as np

NOMINAL_S = 3.0e-4          # the kernel's median on the host of the README figures
INTERVAL_S = 0.01
WINDOW_S = 0.05
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+\.?\d*|\S")
_TEXT = "0.09375*x3 + 0.5*z12 - 0.40625*x2*x1 + 0.25*sin(z13)"
_M = np.eye(3) + 0.125
_G, _EYE = np.arange(3.0), np.eye(3)
_EINSUM = np.einsum         # bound at import, before a traced run wraps numpy.einsum


def _jet_mul(a, b):
    return (a[0] * b[0], a[1] * b[0] + b[1] * a[0],
            a[2] * b[0] + b[2] * a[0] + np.outer(a[1], b[1]) + np.outer(b[1], a[1]))


def kernel() -> float:
    """Wall time of one fixed calibration kernel run."""
    start = time.perf_counter()
    a, b = (0.5, _G, _EYE), (0.75, _G + 1.0, _EYE)
    for _ in range(4):
        a = _jet_mul(a, b)
    _TOKEN.findall(_TEXT)
    inv = np.linalg.inv(_M)
    np.array2string(_EINSUM("ij,jk->ik", inv, _M), precision=12)
    return time.perf_counter() - start


class Calibration:
    """Kernel samples over a run; scales spans to NOMINAL_S.

    Inside ``with`` the interval timer takes the samples; outside, callers
    may take them with ``sample`` around spans of other processes.
    """

    def __init__(self):
        self.starts: list[float] = []      # sample start times, increasing
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        """Time the kernel once; the interval timer calls this as a handler."""
        self.starts.append(time.perf_counter())
        self.kernel_s.append(kernel())
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self, start: float, end: float) -> float:
        """Wall time of the span minus the samples taken inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - inside

    def speed(self, start: float, end: float) -> float:
        """NOMINAL_S over the trimmed mean kernel time within WINDOW_S of a span."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = sorted(self.kernel_s[lo:hi])
        cut = len(near) // 10               # one preempted sample must not decide
        return NOMINAL_S / float(np.mean(near[cut:len(near) - cut]))

    def scaled(self, start: float, end: float) -> float:
        """Calibrated duration of a span of this process."""
        return self.raw(start, end) * self.speed(start, end)
