"""Host-speed calibration: a fixed pure-Python loop timed between batches.

On a small shared host the vCPUs slow down by up to 1.9x for tens of seconds
when neighbours are busy, so two runs of the same code can differ by more
than any change worth measuring.  The calibration loop slows down with the
host.  The benchmark times it every :data:`INTERVAL_S` between batches, and
reports host times scaled to the reference host: a time measured while the
loop took twice its reference time counts half.

This module imports nothing from ``repro``, so the set-up probe can
calibrate before it starts timing the import.
"""

from __future__ import annotations

import time
from typing import Dict

#: Loop iterations; about 0.85 ms on the reference host.
ITERATIONS = 8000
#: The loop's time on the reference host: a 2-vCPU 2.1 GHz Xeon VM, idle
#: (the 5th to 25th percentile of 3000 samples).
REFERENCE_S = 0.00085
#: Seconds between calibrations inside a closed loop.
INTERVAL_S = 0.05


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    table: Dict[int, int] = {}
    began = time.perf_counter()
    for i in range(ITERATIONS):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return time.perf_counter() - began
