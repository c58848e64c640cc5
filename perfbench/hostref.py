"""Gauges how fast the host runs while an op runs, to correct op times.

On a shared host the same op can take up to twice as long from one
minute to the next, because other tenants slow the cores and caches this
process runs on. While an op runs, ``HostSampler`` interrupts it every
PERIOD_S of wall time (SIGALRM) and times a small fixed reference kernel.
The kernel calls nothing in drivedml, so no change to the program moves
it; only the host does. ``corrected()`` takes the sampler's time out of
the op's and scales the rest to a host of nominal speed, which cancels
most of the host's swings and keeps the program's cost.

The host's slow phases slow this kernel more than they slow the
workloads' ops, so a time is scaled by the reference's speed ratio
raised to ELASTICITY, not by the ratio itself. Regressing log op time on
log kernel time across the ops of one run gave slopes of 0.58
(study_presets), 0.54 (plm_fit) and 0.84 (drive_extract); one exponent
serves all three. perfbench/README.md and RESULTS.md have the details.

The kernel mixes the two kinds of work the workloads do: a pure-Python
loop parsing CSV text into floats (the io layer) and numpy calls on
small arrays (boosting on small folds, the signal filters).
"""

from __future__ import annotations

import csv
import io
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Corrected times are scaled to a host on which one kernel run takes
# NOMINAL_S, about its median on a 2-vCPU shared VM, so they read as
# seconds close to the wall times.
NOMINAL_S = 0.0012
ELASTICITY = 0.7

_CSV_TEXT = "".join(f"{i * 0.004:.3f},{math.sin(i * 0.01):.9f}\n" for i in range(300))
_VECTOR = np.linspace(-1.0, 1.0, 64)


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    times = []
    values = []
    for row in csv.reader(io.StringIO(_CSV_TEXT)):
        times.append(float(row[0]))
        values.append(float(row[1]))
    for _ in range(100):
        w = _VECTOR * 2.0 + 1.0
        w.sum()
        np.argsort(w)
    return time.perf_counter() - t0


class HostSampler:
    """Times the reference kernel on entry, on exit and every PERIOD_S between.

    ``ref_s`` is the median kernel time, ``overhead_s`` the wall time the
    samples took from the code they interrupted. Python runs the handler
    between bytecodes, so a long call into C delays a sample but is never
    cut short, and interrupted system calls are retried (PEP 475).
    """

    def __init__(self, kernel=reference_s):
        # a traced run passes reference_s wrapped in a span, so the samples
        # are child spans and drop out of the layers' self times
        self.kernel = kernel

    def __enter__(self) -> "HostSampler":
        self.samples = [self.kernel()]
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.overhead_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.kernel())
        self.ref_s = statistics.median(self.samples)


def corrected(seconds: float, overhead_s: float, ref_s: float) -> float:
    """An op's time without the sampler's share, at nominal host speed."""
    return (seconds - overhead_s) * (NOMINAL_S / ref_s) ** ELASTICITY
