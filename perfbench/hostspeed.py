"""Host-speed sampling: a fixed pure-Python kernel timed before, during and
after every measured call.

The benchmark runs on a few shared vCPUs whose speed shifts by up to ~1.8x
between phases that last from under a second to minutes. Within one run the
same job then takes very different times, and across runs the wall time
depends on how long each phase held. The kernel does the same work every
time, so its duration is a reading of the host's speed at that moment.

``Sampler`` runs the kernel right before and right after a measured call,
and every ``period`` seconds while it runs, from a ``SIGALRM`` handler.
Time spent in readings is taken out of an interval's wall and CPU time,
which are then scaled by the mean of ``REF_S / kernel time`` over the
readings in and next to the interval. That expresses them in seconds at a
fixed reference speed.
A change to gpsyn moves the scaled time as it moves the wall time; a change
of host speed moves the call and the kernel alike and cancels out.

The kernel mixes three kinds of work that gpsyn's layers do: hashing new
small tuples into a growing dict, as search does with states; scanning a
list of effect-like tuples with set membership tests, as the interpreter
does; and counting into a small dict, which stays in cache. The host's slow
phases slow memory-bound code more than cache-resident code, and in probes
this mix tracked all three workloads better than any one part alone.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Median kernel time on the 2-vCPU x86-64 host the benchmark was tuned on
# (Python 3.11). Only a fixed number matters: it sets the reference speed.
REF_S = 0.036

_EFFECTS = [(i % 97, (i * 7) % 101, i % 5) for i in range(6000)]
_TRUE = frozenset(range(0, 101, 3))


def _kernel() -> int:
    seen = {}
    frontier = [(0, 0, 0)]
    for _ in range(8000):
        s = frontier.pop()
        for i in range(3):
            t = (s[0] + i, s[1] ^ i, (s[2] * 31 + i) % 9973)
            if t not in seen:
                seen[t] = s
                frontier.append(t)
    fired = 0
    for _ in range(12):
        for a, b, c in _EFFECTS:
            if a in _TRUE and b not in _TRUE:
                fired += c
    counts = {}
    for i in range(40000):
        key = (i & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(seen) + fired + len(counts)


class Sampler:
    """Periodic kernel readings while active (``with sampler:``)."""

    def __init__(self, period: float):
        self.period = period
        # (start, wall s, cpu s) of every kernel run, in time order.
        self.readings: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        # A tick that lands inside a reading is dropped.
        if not self._busy:
            self.read()

    def read(self) -> None:
        """Take one reading, with the cyclic GC held off so that the size
        of gpsyn's heap does not leak into it."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            c1 = time.process_time()
            # Recorded before a tick can start the next reading.
            self.readings.append((t0, t1 - t0, c1 - c0))
            self._starts.append(t0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _window(self, t0: float, t1: float):
        """Wall and CPU s of the readings taken in [t0, t1], and the scale
        from the readings in it and the one on either side."""
        i = bisect.bisect_left(self._starts, t0)
        j = bisect.bisect_left(self._starts, t1)
        taken = self.readings[i:j]
        around = self.readings[max(i - 1, 0):j + 1]
        scale = statistics.fmean(REF_S / r[1] for r in around)
        return sum(r[1] for r in taken), sum(r[2] for r in taken), scale

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the interval [t0, t1], less readings."""
        taken, _, scale = self._window(t0, t1)
        return (t1 - t0 - taken) * scale

    def measure(self, fn):
        """Call ``fn()``; return (result, wall s, cpu s, scale), where the
        times exclude readings and ``scale`` turns them into seconds at the
        reference speed."""
        self.read()
        t0 = time.perf_counter()
        c0 = time.process_time()
        out = fn()
        c1 = time.process_time()
        t1 = time.perf_counter()
        self.read()
        taken_wall, taken_cpu, scale = self._window(t0, t1)
        return out, t1 - t0 - taken_wall, c1 - c0 - taken_cpu, scale
