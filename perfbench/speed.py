"""The machine's speed at the moment, from a fixed pure-Python probe.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over minutes, because other tenants load the host.  A
drift like that moves every sample of a run together, so no statistic
over one run's samples removes it.  run.py therefore times this probe
between its child processes and scales its times by how fast the probe
ran (see `Speed`).

The probe uses nothing from quiverhecke, so a change to the program
never changes the probe; it exercises what the program's hot paths are
made of (tuple keys in dicts, exact rationals, big integers, sorting,
small allocations), so that it slows down when the machine does.  It
slows down more than the program, which also waits on memory and
files; SENSITIVITY accounts for that.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

__all__ = ["probe", "Speed", "REFERENCE_PROBE_S", "SENSITIVITY"]

# A typical median probe time on the machine the baseline was measured
# on (a shared 2-vCPU Intel Xeon VM, Python 3.11.7; it ranged from
# 0.019 s to 0.023 s there).  Scaled times read as seconds on that
# machine when the probe runs in exactly this time.
REFERENCE_PROBE_S = 0.020

# How far the program's times move when the probe's time moves: the
# slope of log(time) against log(probe time) over trial runs on that
# machine was 0.3 to 0.7 (lower for CLI start-up, which waits on memory
# and files more than the pure-Python probe does).
SENSITIVITY = 0.5

PROBE_SHARE = 0.06    # probe time per second of measured work
MIN_PROBES = 3        # probe calls at each calibration point, at least


def _work():
    """One fixed piece of interpreter work; returns a checksum."""
    table = {}
    for i in range(12000):
        key = (i % 37, i % 11, i // 7)
        table[key] = table.get(key, 0) + i
    acc = Fraction(0)
    for i in range(1, 1000):
        acc = (acc + Fraction(i % 13 + 1, i % 29 + 3)) % 7
    big = 1
    for i in range(1, 4000):
        big = big * (i | 1) % (1 << 521)
    rows = sorted(((v * 7919) % 1009, k)
                  for k, v in list(table.items())[:4000])
    return len(table) + acc.numerator % 97 + big % 89 + rows[0][0]


_CHECK = _work()


def probe():
    """Seconds one run of the fixed work takes now."""
    t0 = time.perf_counter()
    if _work() != _CHECK:
        raise RuntimeError("speed probe computed a different checksum")
    return time.perf_counter() - t0


class Speed:
    """Probe samples of one run, and the scale they give its times.

    run.py calls `point(busy)` before its first child and after every
    child, with the child's wall time: the probe then runs for
    PROBE_SHARE of that time, so the samples are spread over the run in
    proportion to the work measured.  `factor()` is REFERENCE_PROBE_S
    over the median sample, to the power SENSITIVITY: a time measured in
    this run, multiplied by it, estimates the time the same work would
    have taken at the reference speed."""

    def __init__(self):
        self.samples = []

    def point(self, busy=0.0):
        end = time.perf_counter() + PROBE_SHARE * busy
        n = 0
        while n < MIN_PROBES or time.perf_counter() < end:
            self.samples.append(probe())
            n += 1

    def factor(self):
        return (REFERENCE_PROBE_S / statistics.median(self.samples)) \
            ** SENSITIVITY
