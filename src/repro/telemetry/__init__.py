"""Unified telemetry: tracing spans, a metrics registry, profiling hooks.

See ``README.md`` in this directory for the architecture and usage guide.
The three pieces compose but are independently switchable:

* :mod:`~repro.telemetry.tracing` — hierarchical spans with monotonic
  timestamps and parent ids, exportable as JSONL or Chrome trace-event JSON
  (Perfetto).  Off by default; :func:`configure_tracing` opts in.
* :mod:`~repro.telemetry.metrics` — process-local counters/gauges/histograms
  behind one registry with an atomic :meth:`~MetricsRegistry.snapshot`.  On
  by default; :func:`configure_metrics` resets or disables.
* :mod:`~repro.telemetry.profiling` — :func:`timed` regions into histograms.

Quick start::

    from repro.telemetry import configure_tracing, get_metrics

    tracer = configure_tracing()            # start recording spans
    session.compare("DCGAN")                # any runner traffic
    tracer.export("trace.json")             # open in Perfetto
    print(get_metrics().snapshot()["counters"])
"""

from .metrics import (
    DEFAULT_HISTOGRAM_WINDOW,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    get_metrics,
)
from .profiling import timed
from .subscriber import MetricsSubscriber
from .tracing import (
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
)

__all__ = [
    "DEFAULT_HISTOGRAM_WINDOW",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "Span",
    "Tracer",
    "configure_metrics",
    "configure_tracing",
    "get_metrics",
    "get_tracer",
    "timed",
]
