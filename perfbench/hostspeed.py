"""Host-speed probe: a fixed kernel timed between the measured items.

The baseline host is a shared virtual machine whose speed drifts by up to
1.6x, in phases that last from seconds to minutes.  A 30-second run sits in
one or two phases, so raw times spread from run to run by as much as the
widest bound a metric may have.  The probe kernel mixes the three kinds of
work metaknn does: small-array numpy calls (the shell vote), interpreter
loops, and a memory-bound array pass (term building).  It runs no metaknn
code, so a change to the program does not move it.

Every measured item (a set-up or an operation) is scaled to the reference
speed by the mean of the probes taken just before it, every PERIOD_S seconds
while it runs, and just after it:

    scaled = raw * REFERENCE_S / probe_s

wall time with the probe's wall time, CPU time with its CPU time.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

import numpy as np

# about the median wall time of kernel() on the baseline host (2-core Intel Xeon VM,
# Python 3.11, numpy 2.4); only fixes the scale the metrics are reported in
REFERENCE_S = 0.042
PERIOD_S = 1.0  # probe interval inside an item; one probe costs about REFERENCE_S

_RNG = np.random.default_rng(20261017)
_ROW = _RNG.integers(0, 6, 150).astype(float)
_LABELS = _RNG.integers(0, 2, 150)
_TEST = _RNG.random((400, 24))
_TRAIN = _RNG.random((800, 24))
_TERMS = np.empty((400, 800))  # preallocated: page faults would time the host's memory manager


def kernel() -> None:
    for _ in range(600):  # a shell vote on a tie-heavy distance row
        order = np.argsort(_ROW, kind="stable")
        ds = _ROW[order]
        available = int(np.sum(np.isfinite(ds)))
        size = int(np.searchsorted(ds[:available], ds[4], side="right"))
        np.bincount(_LABELS[order[:size]], minlength=2).max()
    acc, table = 0, {}
    for i in range(80000):  # interpreter work
        acc += i * i % 7
        table[i & 255] = acc
    for j in range(6):  # per-feature term matrices, 400 x 800
        np.subtract(_TEST[:, None, j], _TRAIN[None, :, j], out=_TERMS)
        np.abs(_TERMS, out=_TERMS).sum()
        np.subtract(_TEST[:, None, j], _TRAIN[None, :, j], out=_TERMS)
        np.square(_TERMS, out=_TERMS).sum()


def probe() -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel run."""
    t0, c0 = perf_counter(), process_time()
    kernel()
    return perf_counter() - t0, process_time() - c0


class HostSpeed:
    """Times items and scales them by the probes taken around and inside each."""

    def __init__(self):
        kernel()  # warm-up: first-call costs are not host speed
        self.last = probe()
        self.probes = [self.last]
        self._inside: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        self._inside.append(probe())

    def measure(self, fn):
        """Run fn(); return (its result, scaled wall s, scaled CPU s, raw wall s).

        While fn runs, a timer probes every PERIOD_S seconds, so a long item
        is scaled by the host speed over its whole length, not only at its
        ends.  Those probes' own time is taken out of the item's.
        """
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0, c0 = perf_counter(), process_time()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)  # first, so no probe lands after the stop
            wall, cpu = perf_counter() - t0, process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        wall -= sum(w for w, _ in inside)
        cpu -= sum(c for _, c in inside)
        now = probe()
        window = [self.last, *inside, now]
        self.probes += [*inside, now]
        self.last = now
        probe_wall = sum(w for w, _ in window) / len(window)
        probe_cpu = sum(c for _, c in window) / len(window)
        return out, wall * REFERENCE_S / probe_wall, cpu * REFERENCE_S / probe_cpu, wall
