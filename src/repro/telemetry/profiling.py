"""Profiling hook: timed regions into histograms.

:func:`timed` is a context manager observing the block's wall time into a
registry histogram (no-op when metrics are disabled).  This is how the
service feeds ``service.request_latency_seconds`` without hand-rolled clock
arithmetic at every call site.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from .metrics import Histogram, get_metrics


@contextmanager
def timed(name: str, **labels: Any) -> Iterator[None]:
    """Observe the block's duration (seconds) into histogram ``name``.

    Resolves the registry at entry, so a block running while metrics are
    disabled costs one ``None`` check and nothing else.
    """
    registry = get_metrics()
    if registry is None:
        yield
        return
    histogram: Histogram = registry.histogram(name, **labels)
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start)
