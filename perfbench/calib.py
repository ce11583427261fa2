"""Host-speed calibration for the benchmark's timings.

The host this benchmark was written on runs the same Python code up to 2x
slower in phases that last from seconds to minutes; CPU time swings with
wall time, so the cause is contention for the hardware.  `calibrate()`
times a fixed Fraction workload, the kind of work most of cgv's time goes
to.  A latency times CAL_REF_S over the calibration time measured around it
is about that latency at the host's quiet speed: slow phases largely cancel
out (perfbench/NOTES.md gives the residual spread).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# one run of the fixed workload on the quiet host (2-vCPU Intel Xeon, Python 3.11.7)
CAL_REF_S = 0.0065
# runs per calibration: a single run is often hit by a brief stall
CAL_RUNS = 3


def calibrate():
    """Seconds each of CAL_RUNS runs of the fixed workload takes now.

    The cyclic collector is off meanwhile: a collection that the program's
    allocations made due would otherwise land here instead of in an op.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_RUNS):
            start = time.perf_counter()
            s = Fraction(0)
            for i in range(1, 1500):
                s += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(i % 13 + 1, 7)
            times.append(time.perf_counter() - start)
        return times
    finally:
        if was_enabled:
            gc.enable()


def normalise(events):
    """Quiet-host latencies of the ops in a sequence of ("op", seconds) and
    ("cal", calibrate() result) events that starts and ends with a
    calibration: each op is scaled by the median of the calibration runs on
    either side of it."""
    out = []
    before = None
    pending = []
    for kind, value in events:
        if kind == "cal":
            for latency in pending:
                out.append(latency * CAL_REF_S / statistics.median(before + value))
            pending = []
            before = value
        else:
            pending.append(value)
    if pending or before is None:
        raise ValueError("events must start and end with a calibration")
    return out
