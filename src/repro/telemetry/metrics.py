"""Process-local metrics: counters, gauges and histograms behind one registry.

A :class:`MetricsRegistry` owns every instrument in a process.  Instruments
are addressed by name plus optional labels (``registry.counter(
"service.admission.accepted", client="worker-3")``); the same (name, labels)
pair always returns the same instrument, so call sites never need to hold
references across layers.  One registry-wide lock serializes every update
and makes :meth:`MetricsRegistry.snapshot` an **atomic** cut across all
instruments — a snapshot taken while other threads complete jobs never
shows a counter torn against its sibling (pinned by
``tests/test_telemetry.py``).

The module-level registry follows the same configure/get pattern as the
layer memo (:func:`repro.runner.cache.configure_layer_memo`):

* :func:`get_metrics` — the process registry, created lazily (metrics are
  **on by default**; instruments are a dict lookup plus an integer add, far
  below simulation cost).
* :func:`configure_metrics` — swap in a fresh registry, or disable metrics
  entirely (``enabled=False``), after which :func:`get_metrics` returns
  ``None`` and every instrumented call site degrades to a no-op check.

Naming convention: dotted lowercase paths, ``<layer>.<subsystem>.<what>``
(``runner.cache.hits``, ``service.queue_depth``, ``backend.jobs.inflight``).
Durations are histograms in seconds with a ``_seconds`` suffix.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

#: Samples a histogram keeps for percentile estimation; lifetime count/sum/
#: min/max are exact regardless (the window only bounds memory).
DEFAULT_HISTOGRAM_WINDOW = 4096


def _key(name: str, labels: Mapping[str, Any]) -> str:
    """The registry key of one instrument: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer (events, hits, rejects)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level (queue depth, in-flight jobs, resident entries)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A distribution (latencies): exact count/sum/min/max, windowed percentiles.

    The percentile estimate nearest-ranks over the most recent
    ``window`` observations; lifetime ``count``/``sum``/``min``/``max`` are
    exact however many samples passed through.
    """

    __slots__ = ("_lock", "_samples", "count", "total", "min", "max")

    def __init__(
        self, lock: threading.RLock, window: int = DEFAULT_HISTOGRAM_WINDOW
    ) -> None:
        self._lock = lock
        self._samples: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the sample window (0 when empty)."""
        with self._lock:
            samples = list(self._samples)
        return _nearest_rank(sorted(samples), p)

    def _state_locked(self) -> Tuple[int, float, float, float, List[float]]:
        """The lifetime totals and a copy of the window; the caller holds
        the lock, and :func:`_summarize` does the sorting after release."""
        return self.count, self.total, self.min, self.max, list(self._samples)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            state = self._state_locked()
        return _summarize(*state)


def _nearest_rank(ordered: List[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))
    return ordered[rank]


def _summarize(
    count: int, total: float, low: float, high: float, samples: List[float]
) -> Dict[str, float]:
    """One histogram's summary from its copied state; sorts the window once."""
    if count == 0:
        return {"count": 0, "sum": 0.0}
    ordered = sorted(samples)
    return {
        "count": count,
        "sum": total,
        "min": low,
        "max": high,
        "mean": total / count,
        "p50": _nearest_rank(ordered, 50),
        "p90": _nearest_rank(ordered, 90),
        "p99": _nearest_rank(ordered, 99),
    }


class MetricsRegistry:
    """Every instrument of one process, behind one lock.

    ``counter``/``gauge``/``histogram`` get-or-create by (name, labels);
    asking for an existing name with a different instrument kind raises —
    that is always a naming bug, not a runtime condition.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _get_or_create(
        self, table: Dict[str, Any], name: str, labels: Mapping[str, Any], factory
    ):
        key = _key(name, labels)
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                for other in (self._counters, self._gauges, self._histograms):
                    if other is not table and key in other:
                        raise ValueError(
                            f"metric '{key}' already registered as a different "
                            "instrument kind"
                        )
                instrument = factory(self._lock)
                table[key] = instrument
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(self._gauges, name, labels, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(self._histograms, name, labels, Histogram)

    def snapshot(self) -> Dict[str, Any]:
        """An atomic, JSON-friendly cut across every instrument.

        Every value is read under the registry lock, so no concurrent update
        can tear one instrument's value against another's: a completed job's
        latency observation and its outcome counter appear together or not at
        all.  Histogram windows are copied under the lock and sorted after it
        is released, so a reader never makes writers wait out a sort.
        """
        with self._lock:
            counters = {k: c.value for k, c in sorted(self._counters.items())}
            gauges = {k: g.value for k, g in sorted(self._gauges.items())}
            histograms = [
                (k, h._state_locked()) for k, h in sorted(self._histograms.items())
            ]
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {k: _summarize(*state) for k, state in histograms},
        }

    def counter_value(self, name: str, **labels: Any) -> int:
        """Read one counter without creating it (0 when absent)."""
        key = _key(name, labels)
        with self._lock:
            counter = self._counters.get(key)
            return counter.value if counter is not None else 0

    def reset(self) -> None:
        """Drop every instrument (tests; a fresh CLI run keeps its own story)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# Process-wide registry (configure/get, mirroring the layer memo pattern)
# ----------------------------------------------------------------------
_registry_lock = threading.Lock()
_registry: Optional[MetricsRegistry] = None
_metrics_enabled = True


def configure_metrics(enabled: bool = True) -> Optional[MetricsRegistry]:
    """(Re)configure process metrics; returns the fresh registry (or None).

    ``enabled=True`` installs a **new, empty** registry — existing counters
    are discarded, so a run's accounting always starts from zero.
    ``enabled=False`` removes the registry entirely: every instrumented call
    site sees :func:`get_metrics` return ``None`` and skips its update (the
    "telemetry disabled" overhead budget of ``bench_telemetry.py``).
    """
    global _registry, _metrics_enabled
    with _registry_lock:
        _metrics_enabled = enabled
        _registry = MetricsRegistry() if enabled else None
        return _registry


def get_metrics() -> Optional[MetricsRegistry]:
    """The process registry, or None when metrics are disabled.

    Metrics are on by default: the first call after process start (or after
    ``configure_metrics(enabled=True)``) lazily creates the registry.
    """
    global _registry
    if _registry is not None or not _metrics_enabled:
        return _registry
    with _registry_lock:
        if _registry is None and _metrics_enabled:
            _registry = MetricsRegistry()
        return _registry
