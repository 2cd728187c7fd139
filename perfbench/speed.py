"""Machine-speed reference for the benchmark's time metrics.

The shared host this benchmark runs on changes speed by up to 2x within
seconds, and its average speed drifts by 30 % or more over minutes, for
reasons outside the process (other tenants on the same cores).  A wall-clock
figure then says more about the host than about rwkit.

So while the end-to-end metrics are measured, ``Meter`` interrupts the
process every ``INTERVAL_S`` (SIGALRM) and, in the signal handler, runs a
short fixed ``probe`` twice and times the second run.  Each timed span is
scaled to the speed at which the probe takes ``REFERENCE_S``:

    scaled = (wall - handler time inside) * REFERENCE_S / mean(probes nearby)

where "nearby" is every probe from ``HALO_S`` before the span to ``HALO_S``
after it.  The probe uses numpy only, never rwkit, so a change to rwkit moves
the scaled time exactly as much as the wall time.  It has the same mix as
rwkit's work: a Python loop of small FFTs, elementwise soft thresholds and
reductions, on a 128-vector and on a 64x64 image.  Python runs the handler
between bytecodes, so a probe never splits a numpy call, and it falls wholly
inside or wholly outside any span the harness times.
"""

import bisect
import signal
import time
from array import array

import numpy as np

# Probe time at the reference speed: scaled times are "ms (or s) at the speed
# where the probe takes 1 ms", about its median on a 2-vCPU cloud host.
REFERENCE_S = 0.001
INTERVAL_S = 0.1
HALO_S = 0.5

# Bound at import, so that a tracer wrapping numpy.fft later never sees them.
_fft, _ifft, _fft2, _ifft2 = np.fft.fft, np.fft.ifft, np.fft.fft2, np.fft.ifft2
_rng = np.random.default_rng(0)
_VECTOR = _rng.standard_normal(128)
_IMAGE = _rng.standard_normal((64, 64))
_MASK_1D = _rng.random(128) < 0.5
_MASK_2D = _rng.random((64, 64)) < 0.5


def _ista(x, mask, forward, inverse, steps):
    z = x.astype(complex)
    total = 0.0
    for _ in range(steps):
        r = forward(z)
        r[~mask] = 0.0
        z = inverse(r)
        mag = np.abs(z)
        z = z * (np.maximum(mag - 0.05, 0.0) / np.maximum(mag, 1e-12))
        total += float(np.sum(np.abs(z)))
    return total


def probe():
    """Fixed work, about REFERENCE_S long on the reference machine."""
    return _ista(_VECTOR, _MASK_1D, _fft, _ifft, 15) + _ista(
        _IMAGE, _MASK_2D, _fft2, _ifft2, 2
    )


class Meter:
    """Probes the host's speed every INTERVAL_S while it is entered."""

    def __init__(self):
        self.start = array("d")  # when each probe began
        self.busy = array("d")  # how long its handler ran
        self.took = array("d")  # how long its timed run took
        self._previous = None

    def _probe(self, signum=None, frame=None):
        # The first run refills the caches the program took over, so that
        # the timed second run measures the host, not rwkit's footprint.
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.start.append(t0)
        self.busy.append(t2 - t0)
        self.took.append(t2 - t1)

    def __enter__(self):
        probe()  # warm-up
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _between(self, t0, t1):
        return bisect.bisect_left(self.start, t0), bisect.bisect_right(self.start, t1)

    def wall(self, t0, t1):
        """Wall time from t0 to t1, less the probes that ran inside it."""
        lo, hi = self._between(t0, t1)
        return (t1 - t0) - sum(self.busy[lo:hi])

    def scaled(self, t0, t1):
        """``wall(t0, t1)`` at the reference speed."""
        lo, hi = self._between(t0 - HALO_S, t1 + HALO_S)
        nearby = self.took[lo:hi]
        return self.wall(t0, t1) * REFERENCE_S * len(nearby) / sum(nearby)
