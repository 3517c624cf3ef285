"""Hierarchical tracing spans over the execution layers.

A :class:`Span` is one timed region — ``batch``, ``job``,
``simulate_layers``, ``layer-memo`` on the runner side; ``request``,
``admission``, ``dispatch`` on the service side — with a monotonic start/end
timestamp, a parent id, and free-form attributes.  A :class:`Tracer` collects
them thread-safely and exports the finished tree either as JSONL (one span
per line) or as Chrome trace-event JSON, which Perfetto / ``chrome://tracing``
open directly.

Tracing is **off by default**: :func:`get_tracer` returns ``None`` until
:func:`configure_tracing` installs a tracer, and every instrumented call site
guards with one ``is None`` check — the near-zero-overhead no-op path the
``bench_telemetry.py`` budget pins.

Parentage works two ways:

* **Explicit** — ``begin(name, parent_id=...)``, used where the parent is
  known across threads (the runner parents every ``job`` span under its
  ``batch`` span).
* **Implicit** — the :meth:`Tracer.span` context manager keeps a per-thread
  stack of open spans; a span begun without an explicit parent nests under
  the innermost open span *of its thread* (how a ``layer-memo`` span lands
  under its ``simulate_layers`` span).

Execution-side spans may need a parent that was opened on a *different*
thread (the submitting thread opens the ``job`` span; the thread that drives
the job — a service executor thread, say — runs the simulation).  :meth:`Tracer.register_job` bridges the gap: the runner
registers ``cache_key -> job-span id`` at dispatch, and
:func:`~repro.runner.job.execute_job` looks the parent up with
:meth:`Tracer.parent_for`.  The tree is the same
whichever thread drives the jobs (pinned by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]


class Span:
    """One timed, attributed region of work inside a trace."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attrs",
        "thread_id",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        thread_id: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.thread_id = thread_id

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open (or closed) span; returns self."""
        self.attrs.update(attrs)
        return self

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly record of the span (the JSONL export grammar)."""
        record: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread_id": self.thread_id,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


#: Closed spans a tracer keeps; older ones are dropped, so a tracer in a
#: long-lived process (a server) holds bounded memory, about 400 B a span.
#: A traced ``compare`` over the six paper GANs closes about a hundred.
MAX_FINISHED_SPANS = 100_000


class Tracer:
    """Thread-safe span collector with JSONL and Chrome trace-event export.

    Timestamps are :func:`time.monotonic` seconds relative to the tracer's
    construction, so spans from every thread share one clock and the Chrome
    export's microsecond timeline starts at zero.  Only the newest
    :data:`MAX_FINISHED_SPANS` closed spans are kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        self._ids = itertools.count(1)
        self._finished: Deque[Span] = deque(maxlen=MAX_FINISHED_SPANS)
        self._open: Dict[str, Span] = {}
        self._job_parents: Dict[str, str] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self._epoch

    def begin(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> Span:
        """Open a span.  Without an explicit parent, the innermost span this
        thread opened via :meth:`span` becomes the parent (None at top level).
        """
        if parent_id is None:
            stack = getattr(self._local, "stack", None)
            if stack:
                parent_id = stack[-1]
        span = Span(
            span_id=f"s{next(self._ids)}",
            parent_id=parent_id,
            name=name,
            start=self._now(),
            thread_id=threading.get_ident(),
            attrs=dict(attrs),
        )
        with self._lock:
            self._open[span.span_id] = span
        return span

    def end(self, span: Span, **attrs: Any) -> bool:
        """Close a span (exactly once); repeated ends are ignored (False)."""
        with self._lock:
            if span.span_id not in self._open:
                return False
            del self._open[span.span_id]
            span.end = self._now()
            if attrs:
                span.attrs.update(attrs)
            self._finished.append(span)
        return True

    @contextmanager
    def span(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> Iterator[Span]:
        """Context manager: begin/end around the block, with implicit nesting
        for spans begun inside it on the same thread."""
        opened = self.begin(name, parent_id=parent_id, **attrs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(opened.span_id)
        try:
            yield opened
        finally:
            stack.pop()
            self.end(opened)

    # -- cross-thread job parentage -------------------------------------
    def register_job(self, cache_key: str, span_id: str) -> None:
        """Remember the open job span executing ``cache_key`` (dispatch time)."""
        with self._lock:
            self._job_parents[cache_key] = span_id

    def parent_for(self, cache_key: str) -> Optional[str]:
        """The job-span id registered for ``cache_key`` (execution time)."""
        with self._lock:
            return self._job_parents.get(cache_key)

    def unregister_job(self, cache_key: str) -> None:
        with self._lock:
            self._job_parents.pop(cache_key, None)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """The newest :data:`MAX_FINISHED_SPANS` closed spans, in close order
        (a snapshot copy)."""
        with self._lock:
            return list(self._finished)

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (a snapshot copy)."""
        with self._lock:
            return list(self._open.values())

    def chrome_trace(self) -> Dict[str, Any]:
        """The finished spans as a Chrome trace-event JSON object.

        Complete (``"ph": "X"``) events with microsecond timestamps; opens
        directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
        """
        pid = os.getpid()
        events = []
        for span in self.finished_spans():
            assert span.end is not None
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: PathLike) -> None:
        """Write the Chrome trace-event JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)

    def export_jsonl(self, path: PathLike) -> None:
        """Write one JSON span record per line to ``path`` (close order)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished_spans():
                handle.write(json.dumps(span.describe(), sort_keys=True) + "\n")

    def export(self, path: PathLike) -> None:
        """Write the trace to ``path``: JSONL when it ends in ``.jsonl``,
        Chrome trace-event JSON otherwise (the CLI's ``--trace`` contract)."""
        if str(path).endswith(".jsonl"):
            self.export_jsonl(path)
        else:
            self.export_chrome(path)


# ----------------------------------------------------------------------
# Process-wide tracer (off by default)
# ----------------------------------------------------------------------
_tracer_lock = threading.Lock()
_tracer: Optional[Tracer] = None


def configure_tracing(enabled: bool = True) -> Optional[Tracer]:
    """Install a fresh process tracer (or remove it with ``enabled=False``).

    Returns the new tracer (None when disabling).  Unlike metrics, tracing
    defaults to **off** — spans allocate per region of work, so they are
    opt-in (``--trace`` on the CLI, or this call in library use).
    """
    global _tracer
    with _tracer_lock:
        _tracer = Tracer() if enabled else None
        return _tracer


def get_tracer() -> Optional[Tracer]:
    """The process tracer, or None when tracing is disabled (the default)."""
    return _tracer
