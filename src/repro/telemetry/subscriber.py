"""The RunnerEvent -> metrics bridge: job outcome counters and latencies.

:class:`MetricsSubscriber` is an event listener (the
``Callable[[RunnerEvent], None]`` shape of
:meth:`repro.runner.SimulationRunner.subscribe`) that turns the runner's
typed event stream into registry metrics:

* ``runner.jobs.scheduled`` and ``runner.jobs.<terminal-kind>`` counters
  (``completed`` / ``cache-hit`` / ``failed`` / ``cancelled``), so outcome
  mix is readable without replaying any stream;
* ``runner.job.latency_seconds`` — a histogram of scheduled-to-terminal
  latency per job, correlated through the event's ``job_uid`` and computed
  from the events' own monotonic timestamps (so it is exact regardless of
  which thread delivers which event).

Every :class:`~repro.runner.SimulationRunner` installs one automatically, so
job metrics exist wherever a runner runs — CLI, service, library — without
any consumer wiring.  The subscriber resolves the registry per event and is
a no-op when metrics are disabled.

This module deliberately imports nothing from :mod:`repro.runner` (the
runner imports *us*); events are duck-typed on the attributes the
``RunnerEvent`` grammar guarantees.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from .metrics import get_metrics


class MetricsSubscriber:
    """Feed job life-cycle events into the process metrics registry.

    Thread-safe: terminal events arrive on whichever thread drives a job
    while ``scheduled`` events arrive on the submitting thread.  The
    per-job start times are keyed by ``job_uid`` and dropped at the job's
    terminal event — the event grammar guarantees exactly one per job, so
    the table never grows past the number of in-flight jobs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._scheduled_at: Dict[str, float] = {}

    def __call__(self, event: Any) -> None:
        registry = get_metrics()
        if registry is None:
            return
        uid = getattr(event, "job_uid", None)
        if event.kind == "scheduled":
            registry.counter("runner.jobs.scheduled").inc()
            if uid is not None:
                with self._lock:
                    self._scheduled_at[uid] = event.timestamp
            return
        if not event.is_terminal:
            return
        registry.counter(f"runner.jobs.{event.kind}").inc()
        if uid is None:
            return
        with self._lock:
            start = self._scheduled_at.pop(uid, None)
        if start is not None:
            registry.histogram("runner.job.latency_seconds").observe(
                event.timestamp - start
            )
