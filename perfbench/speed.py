"""Machine-speed probes.

On a shared machine the speed of a core changes by up to 2x, switching
within a second (other tenants on the same physical cores), and process CPU
time slows down with wall time, so neither tells a slow machine from slow
code.  A probe is a fixed piece of work that does not use dyadlab, and each
workload uses the probe whose work its own resembles, because the speed
changes do not hit all work alike: Python calls, small-array numpy calls
and small SVDs slow down by about 1.5-1.8x, elementwise numpy work on
40000-row arrays by about 1.2x, and dense matrix-vector products on
matrices too big for the cache (memory-bound) by about 1.1x.  A Meter runs
a probe every PROBE_EVERY_S of CPU time from a signal handler, so also
inside long items.  A time measured between two moments is scaled by
REFERENCE_S / (mean probe time around them): it reads as the time on a
machine where one probe takes REFERENCE_S.
"""
import signal
import statistics
import time

import numpy as np

# About one probe of either kind on an Intel Xeon core (numpy 2.4, OpenBLAS,
# 1 thread).
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.1

_A = np.random.default_rng(0).standard_normal((32, 32))
_V = np.random.default_rng(1).standard_normal(256)
_M = np.random.default_rng(2).standard_normal((1023, 1024))  # a depth-10 map
_X = np.random.default_rng(3).standard_normal(1024)
_Y = np.random.default_rng(4).standard_normal(1023)
_U, _W = np.random.default_rng(5).uniform(0.5, 2.0, (2, 40_000))  # a campaign batch


def _add(a, b):
    return a + b


def _python_work(share):
    d = {}
    for i in range(10_000 // share):
        d[i & 63] = _add(i, d.get(i & 63, 0))
    x = _V
    for _ in range(300 // share):
        x = np.abs(x) * 0.5 + np.sqrt(np.abs(_V)).sum() * 1e-3
    for _ in range(30 // share):
        np.linalg.svd(_A)


def probe_python():
    """Seconds taken by Python calls, small-array numpy and small SVDs."""
    t0 = time.perf_counter()
    _python_work(1)
    return time.perf_counter() - t0


def probe_arrays():
    """Seconds taken by half of probe_python's work plus elementwise numpy
    work and masks on 40000-row arrays: the mix of the lemma campaigns."""
    t0 = time.perf_counter()
    _python_work(2)
    for _ in range(8):
        a = _U * _W - _W * _W
        ok = (a > 0.0) & (_U < 1.5 * _W)
        np.where(ok, np.sqrt(np.abs(a)), _U + _W).max()
        ok.sum()
    return time.perf_counter() - t0


def probe_dense():
    """Seconds taken by dense matrix-vector products with a 1023 x 1024
    matrix, both ways."""
    t0 = time.perf_counter()
    for _ in range(16):
        _M @ _X
        _Y @ _M
    return time.perf_counter() - t0


class Meter:
    """Context manager that runs `probe` from a SIGPROF handler every
    PROBE_EVERY_S of process CPU time, and once on entry and on exit.

    ``probes`` holds (start, end) perf_counter pairs.  The handler runs in
    the main thread between bytecodes, so a probe lies wholly inside or
    wholly outside any interval the main thread times.
    """

    def __init__(self, probe=probe_python):
        self.probe = probe
        self.probes = []

    def _probe(self, *_):
        start = time.perf_counter()
        self.probe()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._probe()
        return False

    def mark(self):
        """A moment: (perf_counter, number of probes so far)."""
        return time.perf_counter(), len(self.probes)

    def interval(self, a, b):
        """(seconds from mark a to mark b without the probes run between
        them, the scale to the reference speed).  The scale uses the probes
        inside the interval and the one on each side of it, each capped at
        twice the median probe: a probe the process was descheduled in says
        nothing about the speed.  Call it once the probe after b has run."""
        (t0, n0), (t1, n1) = a, b
        inside = [(s, e) for s, e in self.probes[n0:n1] if s >= t0 and e <= t1]
        cap = 2.0 * statistics.median(e - s for s, e in self.probes)
        around = self.probes[max(n0 - 1, 0):n1 + 1]
        scale = REFERENCE_S / statistics.fmean(min(e - s, cap) for s, e in around)
        return t1 - t0 - sum(e - s for s, e in inside), scale
