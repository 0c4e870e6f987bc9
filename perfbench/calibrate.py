"""Host-speed calibration: a fixed piece of single-threaded work, timed.

The benchmark's host shares its cores with other machines' work, and its
speed drifts in phases tens of seconds long: a fixed pure-Python loop takes
20-40% longer in a slow phase than in a fast one, and even the fastest
iteration of a 30 s window moves by ~20% from window to window. A run is no
longer than such a phase, so no statistic over one run's iterations can
average it out.

So every timed piece of the benchmark (a CLI command, a set-up) is
bracketed by this calibration, run on the CPUs the piece runs on, and its
time is reported scaled to a host running at reference speed::

    scaled = measured * REFERENCE_S / calibration

where ``calibration`` is the mean of the calibrations right before and right
after the piece. A program that gets slower still reads slower by the same
share; a host that gets slower does not. Raw, unscaled times are printed
beside the scaled ones.

The work mixes what the timed commands do: interpreter-bound integer
arithmetic and dict updates (the scalar walks and the parser's loops) and a
C-level sort of a list of floats (memory traffic). It is pure Python, so the
benchmark's own process stays small (a child's peak RSS can start from its
parent's). One calibration is the median of ``PIECES`` short pieces, which
drops sub-second jitter.
"""

from __future__ import annotations

import os
import random
import statistics
import time

# Median calibration time on the host the bounds were tuned on (Intel Xeon,
# 2 vCPUs, Python 3.11); scaled times read roughly as that host's seconds.
REFERENCE_S = 0.055
PIECES = 5

_FLOATS = [random.Random(20240917).random() for _ in range(240_000)]


def _piece() -> float:
    start = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    for i in range(240_000):
        acc = (acc * 31 + i) % 1_000_003
        counts[acc & 1023] = counts.get(acc & 1023, 0) + 1
    sorted(_FLOATS)
    return time.perf_counter() - start


def calibration_s(cpus) -> float:
    """Seconds one calibration takes right now, averaged over ``cpus``.

    Each CPU is calibrated on its own: the host can slow the cores it gives
    this machine unevenly, so a calibration must run where the timed work
    runs.
    """
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(_piece() for _ in range(PIECES)))
    finally:
        os.sched_setaffinity(0, own)
    return sum(times) / len(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
