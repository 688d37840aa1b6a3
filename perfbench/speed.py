"""The machine's speed while an op runs, from a reference loop run inside it.

On a shared virtual machine the speed of pure-Python code drifts: on the
machine this benchmark was written on, the same code ran up to twice as
slow for stretches of a fraction of a second to minutes, with nothing else
running in the VM. Repeating ops cannot filter out a slow stretch that
covers a whole run, and a probe run only between ops misses what happens
during an op of several seconds.

So a profiling timer (``SIGPROF``, every PROBE_EVERY_S of CPU time)
interrupts whatever runs, op included, and times ``reference_work``, a
fixed loop of dictionary and list lookups that allocates nothing. Each
probe runs the loop twice and times only the second run: the first brings
the loop's data back into the caches that the interrupted op had filled
with its own, so the timed run depends little on how much memory the op
touches (NOTES.md has the check). An op's time is its wall time minus the
probes that ran inside it, scaled by REFERENCE_S over the mean probe
duration during the op (or, for an op too short to hold three probes,
within WINDOW_S of it). The result reads as seconds at the speed at which
the reference loop takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Duration of the timed (second) run of reference_work() on the development
# machine at full speed.
REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25

_NODES = 2000
_SUCC = {f"n{i}": [f"n{(i * 7 + j) % _NODES}" for j in range(3)] for i in range(_NODES)}
_INDEX = {name: i for i, name in enumerate(_SUCC)}
_NAMES = list(_SUCC)


def reference_work() -> int:
    """Dictionary and list lookups over a fixed graph; no allocation."""
    total = 0
    for name in _NAMES:
        for succ in _SUCC[name]:
            if succ in _INDEX:
                total += _INDEX[succ] & 7
    return total


class Speedometer:
    """Probe samples (end time, duration) and the probe time so far."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.probe_s = 0.0

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            warm_start = time.perf_counter()
            reference_work()
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(end)
        self.durations.append(end - start)
        self.probe_s += end - warm_start

    def __enter__(self) -> Speedometer:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe duration during [start, end], or
        within WINDOW_S of it, or else the nearest probes before and after."""
        near: list[float] = []
        for margin in (0.0, WINDOW_S):
            lo = bisect.bisect_left(self.times, start - margin)
            hi = bisect.bisect_right(self.times, end + margin)
            near = self.durations[lo:hi]
            if len(near) >= 3:
                break
        if not near:
            before = bisect.bisect_left(self.times, start) - 1
            near = [self.durations[i] for i in (before, before + 1) if 0 <= i < len(self.times)]
        return REFERENCE_S / statistics.fmean(near) if near else 1.0

    def slowdown(self) -> float:
        """Median probe duration over REFERENCE_S: how slow the machine ran."""
        return statistics.median(self.durations) / REFERENCE_S
