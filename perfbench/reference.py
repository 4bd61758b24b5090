"""A fixed reference loop that gauges how fast this machine runs right now.

The benchmark shares a host whose speed moves by a fifth or more within
seconds, in fast and slow spells, with no change to the code it runs: the
same loop takes 2.4 ms in one second and 4 ms in the next, in CPU time as
much as in wall time. While a workload is timed, ``SpeedGauge`` runs the
loop below every 30 ms from a SIGALRM handler and keeps its CPU time;
``work_per_ref`` multiplies each chunk's rate by the mean loop time during
that chunk, so a fast or slow spell cancels out of the figure. CPU time,
not wall time, because on the 2-worker workload the handler waits for a
core behind the pool's own workers.

The loop does what partid's hot path does, and nothing of partid itself:
scalar math through ``math``, calls on arrays of four floats through
numpy, small Python methods, and a bisection on a monotone scalar
function. It never changes, so a change to partid moves ``work_per_ref``
by as much as it moves the measured rate.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

ROUNDS = 60


class _Arm:
    __slots__ = ("var",)

    def __init__(self, var):
        self.var = var

    def kl(self, mu, nu):
        return (mu - nu) ** 2 / (2.0 * self.var)


def _bisect(f, lo, hi, iters=30):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_loop() -> float:
    """One fixed piece of work, about 3 ms on a 2-vCPU Xeon VM."""
    arms = [_Arm(0.5 + 0.25 * i) for i in range(4)]
    w = np.full(4, 0.25)
    a = np.array([1.0, -0.5, 0.75, 0.25])
    acc = 0.0
    for r in range(ROUNDS):
        mu = np.array([0.1 * r % 1.0, -0.2, 0.3, 0.05 * (r % 7)])
        g = 1.0 - float(a @ mu)
        denom = float(np.sum(a * a / np.maximum(w, 1e-12)))
        acc += g * g / (2.0 * denom)
        nu = mu[0]
        acc += _bisect(lambda x: arms[0].kl(nu, x) - 0.1 - 1e-4 * r,
                       nu, nu + 10.0)
        acc += sum(arm.kl(float(m), 0.0) for arm, m in zip(arms, mu))
        acc += math.log1p(abs(g)) + math.sqrt(abs(denom))
        w = np.clip(w + 1e-6 * (np.argmax(mu) == np.arange(4)), 1e-3, 1.0)
        w = w / w.sum()
    return acc


class SpeedGauge:
    """Times the reference loop every ``interval`` seconds of wall time,
    from a SIGALRM handler, while the code inside ``running()`` goes on.

    ``samples`` holds each loop's time and ``spent`` their sum, which the
    caller takes out of the time it measures around its own work. Interval
    timers are not inherited across fork, so pool workers never sample.
    """

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        self.samples.append(time.thread_time() - c0)
        self.spent += time.perf_counter() - t0

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
