"""Interpreter speed calibration for timings on a shared, noisy host.

On a shared host the speed of pure-Python code can drift by a factor of two
over a few seconds.  A fixed calibration loop (dict-heavy sparse
combination, like `linalg.combine`) is timed every 20 ms from a SIGALRM
handler while the workload runs; each slice of wall time is then
weighted by the speed measured in it.  A scaled time reads in seconds at
the reference speed, at which one loop takes `REF_LOOP_S`.
"""

from __future__ import annotations

import signal
import time

REF_LOOP_S = 1.3e-4


def calibration_loop() -> float:
    """Run the fixed loop once and return its duration in seconds."""
    start = time.perf_counter()
    a = {i: i * 7919 for i in range(0, 60, 2)}
    b = {i: i * 104729 for i in range(1, 60, 3)}
    for _ in range(12):
        out = dict(a)
        for k, y in b.items():
            z = out.get(k, 0) + 3 * y
            if z:
                out[k] = z
            else:
                del out[k]
        a = {k: v % 1000003 for k, v in out.items()}
    return time.perf_counter() - start


def speed_now(loops: int = 16) -> float:
    """Speed factor (reference loop time over loop time) measured now."""
    return REF_LOOP_S * sum(1.0 / calibration_loop() for _ in range(loops)) / loops


class SpeedSampler:
    """Samples the speed factor every `interval` seconds of wall time.

    Use as a context manager around the timed region; `busy` is the
    time spent in the samples, which callers subtract from their timings.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.inverse_sum = 0.0
        self.samples = 0
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        took = calibration_loop()
        self.inverse_sum += 1.0 / took
        self.samples += 1
        self.busy += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Mean speed factor over the samples, or one measured now."""
        if not self.samples:
            return speed_now()
        return REF_LOOP_S * self.inverse_sum / self.samples
