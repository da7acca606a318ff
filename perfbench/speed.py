"""A reference clock for the host's speed, sampled while altlab runs.

On a shared host the same code runs at very different speeds from one
second to the next: a 10k-episode training run took 1.5 s in one phase
and 2.5 s of CPU time in another, with no steal time, and the phases last
from seconds to minutes.  No statistic inside one run removes a phase
longer than the run.  So the benchmark times a fixed piece of reference
work (:func:`probe_work`: dict updates, JSON decoding and scalar random
draws, the interpreter-bound kinds of work altlab does) every
``interval`` seconds while the workload runs, from a ``SIGALRM`` handler in the same
thread, and expresses each altlab time in *reference seconds*: the raw
time scaled by how much slower the probe ran near it than
``NOMINAL_PROBE_S``.  A change to altlab moves the raw time and not the
probe, so it moves the scaled time in the same proportion; a slow phase
of the host moves both, and cancels.

The probe's own time inside an operation is subtracted from it.  The
module uses the standard library only, so that a fresh interpreter can
time the import of altlab (and numpy) with it.
"""

from __future__ import annotations

import importlib
import json
import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

# About the probe's duration on a 2-vCPU VM in a fast phase (Python
# 3.11): a reference second is a second at that speed.
NOMINAL_PROBE_S = 0.0015
# Samples that set the speed of one interval: at least this many, the
# nearest ones first.
MIN_SAMPLES = 9

_KEYS = [(i % 97, i % 13, i & 1) for i in range(5000)]
_RECORD = json.dumps({"episode": 12345, "arrivals": [3, 4, 2, 5, 3, 2, 6, 4, 3, 2],
                      "capped": False})


def probe_work() -> float:
    """A fixed amount of interpreter, JSON and random-number work.

    Memory-bound work is left out: a pass over a large array barely slows
    in the host's slow phases, which slow interpreter-bound code by up to
    twice.
    """
    table: dict = {}
    acc = 0.0
    for key in _KEYS:
        value = table.get(key, 0.0)
        table[key] = value * 0.9 + 1.0
        acc += value
    for _ in range(75):
        acc += len(json.loads(_RECORD)["arrivals"])
    rng = random.Random(1)
    for _ in range(250):
        acc += rng.randrange(2) + rng.random()
    return acc


@dataclass(frozen=True)
class Sample:
    start: float
    seconds: float


class SpeedClock:
    """Probe samples taken by a timer while the clock runs, or on demand."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[Sample] = []
        self._busy = False
        self._saved_handler = None

    def sample(self) -> None:
        """Time one probe now."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            probe_work()
            self.samples.append(Sample(t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedClock":
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probe spent inside ``[start, end]``."""
        starts = [s.start for s in self.samples]
        inside = self.samples[bisect_left(starts, start):bisect_right(starts, end)]
        return sum(s.seconds for s in inside if s.start + s.seconds <= end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per raw second over ``[start, end]``.

        Uses the samples taken inside the interval, widened on both sides
        until it holds at least ``MIN_SAMPLES``.  The host's speed changes
        within tenths of a second, and an operation pays for every slow
        stretch it overlaps, so the probe times are averaged, not reduced
        to their median.
        """
        if not self.samples:
            raise ValueError("the speed clock took no samples")
        starts = [s.start for s in self.samples]
        lo, hi = bisect_left(starts, start), bisect_right(starts, end)
        while hi - lo < min(MIN_SAMPLES, len(self.samples)):
            if lo > 0 and (hi == len(starts) or start - starts[lo - 1] <= starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_PROBE_S / statistics.fmean(s.seconds for s in self.samples[lo:hi])

    def reference_seconds(self, start: float, seconds: float) -> float:
        """Raw ``seconds`` from ``start``, less the probe, in reference seconds."""
        end = start + seconds
        return (seconds - self.probe_seconds(start, end)) * self.scale(start, end)


def timed(fn, *args) -> tuple[float, float]:
    """Call ``fn(*args)`` under a running clock; its raw and reference seconds."""
    with SpeedClock() as clock:
        clock.sample()
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        clock.sample()
    return seconds, clock.reference_seconds(t0, seconds)


def timed_import(module: str) -> tuple[float, float]:
    """Import ``module``; its raw and reference seconds."""
    return timed(importlib.import_module, module)
