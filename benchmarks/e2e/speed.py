"""Host-speed scaling of measured times.

On a shared host the interpreter's speed changes by up to 2x within
seconds (other tenants load the sibling hardware threads; the kernel
still accounts the time as running, so CPU time shifts the same way).
Medians over one run cannot hide a slowdown that lasts seconds.  The
harness therefore interleaves a fixed reference computation with the
measured operations, once per :data:`WINDOW_S` of measured work, and
scales each operation's time by ``REFERENCE_S / t_ref``, where ``t_ref``
is the reference's duration around that operation.  Reported times are
at the reference speed.  A slower program still reads slower: the
reference runs no program code.
"""

import bisect
import os
import threading
from time import perf_counter

#: The reference computation's duration on the host the baselines were
#: measured on (x86-64 VM at 2.1 GHz, CPython 3.11, uncontended phase).
REFERENCE_S = 30e-6
#: Measured work between two reference samples.
WINDOW_S = 0.005


def _reference():
    table = {}
    total = 0
    for i in range(64):
        key = ("k", i % 17, str(i))
        table[key] = table.get(key, 0) + i
        total += len(key[2]) * (i & 7)
    return total


def probe():
    """The reference's duration now (median of three samples)."""
    samples = []
    for __ in range(3):
        start = perf_counter()
        _reference()
        samples.append(perf_counter() - start)
    return sorted(samples)[1]


def scaled_call(function):
    """``(result, scaled seconds)`` of one call of *function*."""
    before = probe()
    start = perf_counter()
    result = function()
    elapsed = perf_counter() - start
    return result, elapsed * REFERENCE_S / ((before + probe()) / 2)


class ScaledTimer:
    """Operation durations, scaled window by window.

    :meth:`add` records one operation's wall time; once a window's worth
    of work has accumulated the reference is sampled again and the
    window's operations are scaled by the mean of the samples before and
    after it.  :meth:`take` flushes and returns the scaled durations
    recorded since the previous call.
    """

    def __init__(self):
        self._window = []
        self._window_s = 0.0
        self._last = probe()
        self._scaled = []

    def add(self, seconds):
        self._window.append(seconds)
        self._window_s += seconds
        if self._window_s >= WINDOW_S:
            self._flush()

    def _flush(self):
        if not self._window:
            return
        current = probe()
        factor = REFERENCE_S / ((self._last + current) / 2)
        self._scaled.extend(seconds * factor for seconds in self._window)
        self._window = []
        self._window_s = 0.0
        self._last = current

    def take(self):
        self._flush()
        scaled, self._scaled = self._scaled, []
        return scaled


class CpuSampler:
    """Samples the reference on one CPU from a background thread.

    The service's server runs pinned to one CPU; a sampler pinned to the
    same CPU reads that CPU's speed.  Each sample takes about 0.1 ms of
    the CPU per :data:`WINDOW_S`.  Use as a context manager around the
    measured phase, then ask :meth:`factor` for the scale of an interval.
    """

    def __init__(self, cpu):
        self._cpu = cpu
        self._stop = threading.Event()
        self._sampled = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._times = []
        self._durations = []

    def _sample(self):
        try:
            os.sched_setaffinity(0, {self._cpu})
        except OSError:  # unpinned, it samples whichever CPU it gets
            pass
        while True:
            now = perf_counter()
            self._durations.append(probe())
            self._times.append(now)
            self._sampled.set()
            if self._stop.wait(WINDOW_S):
                return

    def __enter__(self):
        self._thread.start()
        # One sample before the measured phase, so :meth:`factor` always
        # has one.
        self._sampled.wait()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self, start, end):
        """``REFERENCE_S`` over the mean sample taken in [start, end]
        (the nearest earlier sample when none was)."""
        low = bisect.bisect_left(self._times, start)
        high = bisect.bisect_right(self._times, end)
        if low >= high:
            low = max(0, min(low, len(self._times)) - 1)
            high = low + 1
        window = self._durations[low:high]
        return REFERENCE_S / (sum(window) / len(window))
