"""Times at a reference host speed, for a benchmark on a shared host.

On a shared machine the host's speed swings by up to 40% within seconds and
drifts over minutes, and every efxlab call slows with it.  While a stretch of
work is timed, a timer signal interrupts it every SAMPLE_PERIOD seconds to
time a short fixed loop in the thread's CPU time: the loop slows with the host
but not with preemption (the worker processes of a parallel scan share the
CPUs with it).  Each slice of work between two readings is rescaled to a host
on which the loop takes REF_LOOP_MS: by (REF_LOOP_MS / the mean of the two
readings) ** ELASTICITY.  The readings' own time is left out of both the
measured and the rescaled time.

ELASTICITY is how much more efxlab's calls swing with the host than the loop
does.  Fitted as the slope of log time on log loop time on a 2-vCPU Xeon VM,
it came out between 1.3 and 1.5 for single cdcl.solve, verify, parse_dimacs
and preprocess calls interleaved with readings, and at 1.4 (certify-m8), 1.5
(reduce-m6) and 1.6 (refute-m6) for whole passes, ten runs each.  (A likely
reason: the loop's working set fits in the first-level cache and the calls'
do not.)

A change that slows efxlab slows its slices but not the loop, so it shows in
the rescaled time as it would in wall time.
"""

from __future__ import annotations

import signal
from collections.abc import Iterator
from contextlib import contextmanager
from statistics import median
from time import perf_counter, thread_time

SAMPLE_PERIOD = 0.1  # seconds between readings
SAMPLE_ITERATIONS = 10_000  # about 1 ms of pure-Python arithmetic
# The loop's time on the reference host: about its median on a 2.0 GHz Xeon vCPU.
REF_LOOP_MS = 1.0
ELASTICITY = 1.5


def loop_ms() -> float:
    """CPU milliseconds of one run of the fixed loop."""
    start = thread_time()
    total = 0
    for i in range(SAMPLE_ITERATIONS):
        total += i * i
    return (thread_time() - start) * 1000


def host_loop_ms(repeats: int = 101) -> float:
    """Median of several runs of the loop: how fast the host runs now."""
    return median(loop_ms() for _ in range(repeats))


class HostClock:
    """Adds up the measured and the rescaled time of the stretches it times."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.ref_seconds = 0.0
        self.readings = 0
        self._last_ms = REF_LOOP_MS
        self._resumed = 0.0

    def _read(self, *_signal) -> None:
        paused = perf_counter()
        ms = loop_ms()
        work = paused - self._resumed
        self.seconds += work
        self.ref_seconds += work * (REF_LOOP_MS / ((self._last_ms + ms) / 2)) ** ELASTICITY
        self.readings += 1
        self._last_ms = ms
        self._resumed = perf_counter()

    @contextmanager
    def timing(self) -> Iterator[HostClock]:
        """Times the body, reading the host's speed at its start, every
        SAMPLE_PERIOD seconds within it, and at its end."""
        self._last_ms = loop_ms()
        previous = signal.signal(signal.SIGALRM, self._read)
        self._resumed = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._read()
            signal.signal(signal.SIGALRM, previous)
