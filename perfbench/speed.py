"""The machine's speed, read from a fixed pure-Python loop.

A shared machine can change speed by 1.5-2x within seconds, and for
minutes at a time.  A pure-Python loop slows down with the program, so
every timed operation is divided by the loop's duration measured next to
it and multiplied by ``REF_S``: the result is the operation's time in
seconds at the speed where one loop takes ``REF_S``.

The loop is sampled in the process that does the work, between the
program's own bytecodes: ``Sampler`` runs it from a ``SIGPROF`` handler
every ``PERIOD_S`` of CPU time.  The benchmark's own process samples it
right before and after every child.  A sampler in a second process was
tried and rejected: it slowed the work by half, and tracked its speed
badly.

Sample times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC``
on Linux and so comparable between processes.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

REF_S = 0.004  # one loop at the reference speed
PERIOD_S = 0.1  # CPU seconds between samples inside a child
LOOP_N = 6000
MARGIN_S = 0.3  # samples this close to an operation also count for it


_TABLE = list(range(1024))
_MAP = {i: i for i in range(512)}


def loop() -> int:
    """List, dict, integer, float and string work.  It makes no object
    that the garbage collector tracks, so it never sets off a collection
    of the heap of the program it samples."""
    table, mapping = _TABLE, _MAP
    acc = 1
    for i in range(LOOP_N):
        j = i & 1023
        acc = (acc * 31 + table[j] + mapping.get(i & 511, 0)) % 1000003
        table[j] = acc
        text = f"b[{i & 7}][{j}]"
        acc += len(text) + hash(text) % 7 + int(i * 0.5 + 1.25)
    return acc


def sample() -> tuple[float, float]:
    """(start, duration) of one loop."""
    start = time.perf_counter()
    loop()
    return start, time.perf_counter() - start


class Sampler:
    """Samples the loop every ``PERIOD_S`` of the process's CPU time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def spent_since(self, index: int) -> float:
        """Seconds spent sampling since ``samples[index]``."""
        return sum(d for _, d in self.samples[index:])


class Speed:
    """All samples of a run, and the scale of an operation's time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] | None = None  # sorted start times

    def add(self, samples) -> None:
        self.samples.extend((float(t), float(d)) for t, d in samples)
        self._times = None

    def calibrate(self, n: int = 2) -> None:
        self.add(sample() for _ in range(n))

    def loop_s(self, start: float, end: float) -> float | None:
        """Typical loop duration over [start - MARGIN_S, end + MARGIN_S]:
        the mean without its top and bottom tenth, so that a sample that
        was preempted does not count."""
        if self._times is None:
            self.samples.sort()
            self._times = [t for t, _ in self.samples]
        times = self._times
        lo = bisect_left(times, start - MARGIN_S)
        hi = bisect_right(times, end + MARGIN_S)
        if hi - lo < 2:
            # the nearest samples on either side
            lo, hi = max(0, min(lo, len(times) - 1) - 1), min(len(times), hi + 1)
        durations = sorted(d for _, d in self.samples[lo:hi])
        if not durations:
            return None
        cut = len(durations) // 10
        return statistics.fmean(durations[cut:len(durations) - cut])

    def scaled(self, seconds: float, start: float, spent: float = 0.0) -> float:
        """An operation's time at the reference speed: ``seconds`` minus the
        ``spent`` sampling inside it, scaled by the loop time around it."""
        loop_s = self.loop_s(start, start + seconds)
        work = seconds - spent
        return work if loop_s is None else work * REF_S / loop_s
