"""Speed probe: how fast the benchmark's CPU runs while a workload process runs.

On a shared host the same code runs at very different speeds from one
second to the next (another tenant's work on the same physical core can
halve it), and slow phases last minutes. A probe thread in the benchmark
process, on the same CPU as the workload process, times a short fixed
burst of pure-Python arithmetic every PERIOD_S seconds. The workload
process runs niced (child.py), so a burst is not time-sliced with it and
measures the core's speed at that moment. A time measured over an
interval, less the bursts' own time, is then scaled to the reference
speed, the one at which a burst takes REF_BURST_S:

    normalised = (measured - bursts) * mean of REF_BURST_S / burst time

A burst runs about 0.5 ms of every PERIOD_S, so the probe takes a few per
cent of the workload's CPU.
"""

from __future__ import annotations

import bisect
import math
import threading
import time

# Seconds one burst takes at the reference speed; roughly its time on an
# uncontended core of a 2-vCPU Intel Xeon VM (Python 3.11).
REF_BURST_S = 0.0005
PERIOD_S = 0.01
BURST_STEPS = 100
# Niceness of the workload processes, so that a burst preempts them at once.
WORKLOAD_NICE = 10


def burst(steps: int = BURST_STEPS) -> float:
    """RK4 steps of a damped two-mode oscillator on Python floats, like foil's loop."""
    dt = 1e-3

    def rhs(s):
        return [s[1], -4.0 * s[0] - 0.1 * s[1] + 0.01 * math.sin(s[2]), s[3], -9.0 * s[2] - 0.2 * s[3]]

    s = [1.0, 0.0, 0.5, 0.0]
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs([s[q] + 0.5 * dt * k1[q] for q in range(4)])
        k3 = rhs([s[q] + 0.5 * dt * k2[q] for q in range(4)])
        k4 = rhs([s[q] + dt * k3[q] for q in range(4)])
        s = [s[q] + dt / 6.0 * (k1[q] + 2.0 * k2[q] + 2.0 * k3[q] + k4[q]) for q in range(4)]
    return s[0]


class Probe:
    """Timed bursts on a thread while the `with` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            burst()
            self.starts.append(t0)
            self.times.append(time.perf_counter() - t0)
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def normalise(self, start: float, end: float) -> tuple[float, float]:
        """Time of [start, end] at the reference speed, and the mean speed factor.

        The workload process waits while a burst runs, so the bursts' own
        time is taken out; the rest counts at the mean of the speeds
        (REF_BURST_S / burst time) the bursts begun in [start, end] saw.
        """
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        if hi <= lo:
            raise RuntimeError(f"no probe burst in a {end - start:.3f} s interval")
        times = self.times[lo:hi]
        speed = sum(REF_BURST_S / t for t in times) / len(times)
        return (end - start - sum(times)) * speed, speed
