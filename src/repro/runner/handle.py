"""The consumer side of the streaming execution API: :class:`BatchHandle`.

:meth:`SimulationRunner.submit() <repro.runner.runner.SimulationRunner.submit>`
returns a handle immediately; the handle then lets the caller consume the
batch however suits it:

* :meth:`BatchHandle.as_completed` — yield :class:`~repro.runner.events.
  JobCompletion` records *in completion order*, as results land.  Cache hits
  and batch duplicates resolve immediately, so warm batches stream without
  touching the backend at all.
* :meth:`BatchHandle.iter_results` — yield plain results in *submission
  order*, blocking per slot (the streaming counterpart of the old batch
  return value).
* :meth:`BatchHandle.results` — block until everything finished and return
  the full list (this is exactly what ``run_jobs()`` does).
* :meth:`BatchHandle.cancel` — cancel every job that has not started.

Jobs execute lazily *in the consuming thread* as the handle's iterators
drive them — streaming costs nothing and completion order equals submission
order.  Another thread may :meth:`BatchHandle.cancel` the batch meanwhile:
the job being driven finishes and delivers its result, the rest cancel.

Listeners subscribed on the runner (or passed per batch via ``on_event``)
receive the :class:`~repro.runner.events.RunnerEvent` narration of the batch;
exceptions raised by listeners are suppressed — the event stream is
observability, and a broken observer must not corrupt results.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from concurrent.futures import CancelledError

from ..analysis.results import GanResult
from .backends import JobFuture
from .events import (
    PROVENANCE_DEDUPLICATED,
    JobCompletion,
    RunnerEvent,
)
from .job import SimulationJob

EventListener = Callable[[RunnerEvent], None]

_KIND_CACHE_HIT = "cache-hit"
_KIND_COMPLETED = "completed"
_KIND_FAILED = "failed"
_KIND_CANCELLED = "cancelled"

# Per-process source of job correlation ids (RunnerEvent.job_uid).  The pid
# prefix keeps uids from different processes (a restarted CLI appending to
# the same journal, say) from colliding.
_job_uids = itertools.count(1)


class _Entry:
    """Book-keeping for one submitted job (one submission slot)."""

    __slots__ = (
        "job",
        "index",
        "uid",
        "state",
        "result",
        "error",
        "provenance",
        "future",
        "primary",
        "duplicates",
        "driven",
        "span",
    )

    def __init__(self, job: SimulationJob, index: int) -> None:
        self.job = job
        self.index = index
        self.uid = f"job-{os.getpid()}-{next(_job_uids)}"
        self.state: Optional[str] = None  # terminal event kind once resolved
        self.result: Optional[GanResult] = None
        self.error: Optional[BaseException] = None
        self.provenance: Optional[str] = None
        self.future: Optional[JobFuture] = None
        self.primary: Optional["_Entry"] = None  # set on batch duplicates
        self.duplicates: List["_Entry"] = []
        self.driven = False  # handed to a consumer to drive
        self.span: Optional[Any] = None  # open tracing span (tracing on only)


class BatchHandle:
    """A submitted batch of simulation jobs, consumable as a stream.

    Built by :meth:`SimulationRunner.submit`; not constructed directly.
    """

    def __init__(
        self,
        jobs: Sequence[SimulationJob],
        listeners: Sequence[EventListener] = (),
    ) -> None:
        self._jobs: Tuple[SimulationJob, ...] = tuple(jobs)
        self._listeners: Tuple[EventListener, ...] = tuple(listeners)
        self._cond = threading.Condition()
        self._entries: List[_Entry] = [
            _Entry(job, index) for index, job in enumerate(self._jobs)
        ]
        self._ready: Deque[_Entry] = deque()
        self._terminal = 0
        self._drive_cursor = 0  # next candidate for driving
        self._counts: Dict[str, int] = {
            _KIND_CACHE_HIT: 0,
            _KIND_COMPLETED: 0,
            _KIND_FAILED: 0,
            _KIND_CANCELLED: 0,
        }
        # Tracing state, wired by SimulationRunner.submit when tracing is on:
        # one batch span parenting one job span per entry.  The handle closes
        # each job span at its terminal event and the batch span when the
        # last entry terminates.
        self._tracer: Optional[Any] = None
        self._batch_span: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> Tuple[SimulationJob, ...]:
        """The submitted jobs, in submission order."""
        return self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def done(self) -> bool:
        """Whether every job has reached a terminal state."""
        with self._cond:
            return self._terminal >= len(self._entries)

    def counts(self) -> Dict[str, int]:
        """Terminal-outcome counters: cache-hit / completed / failed / cancelled.

        ``pending`` holds the jobs that have not terminated yet; a batch
        satisfies ``sum(terminals) + pending == len(handle)`` at all times.
        """
        with self._cond:
            counts = dict(self._counts)
            counts["pending"] = len(self._entries) - self._terminal
        return counts

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def as_completed(self, raise_on_error: bool = True) -> Iterator[JobCompletion]:
        """Yield a :class:`JobCompletion` per job, in completion order.

        Cache hits and duplicates land first (they resolve at submission);
        executed jobs follow as they finish.  This iterator *drives*
        execution: each pending job runs in the consuming thread when the
        iterator reaches for more work.

        Failed jobs re-raise their exception unless ``raise_on_error`` is
        False, in which case the completion carries ``error`` and a ``None``
        result.  Cancelled jobs are skipped (see :meth:`counts`).  One
        consumer per handle: completions are delivered exactly once.
        """
        while True:
            entry: Optional[_Entry] = None
            to_drive: Optional[_Entry] = None
            with self._cond:
                while True:
                    if self._ready:
                        entry = self._ready.popleft()
                        break
                    if self._terminal >= len(self._entries):
                        return
                    to_drive = self._next_undriven_locked()
                    if to_drive is not None:
                        break
                    self._cond.wait()
            if entry is None:
                assert to_drive is not None and to_drive.future is not None
                to_drive.future.drive()  # resolves the entry via callbacks
                continue
            if entry.state == _KIND_CANCELLED:
                continue
            if entry.state == _KIND_FAILED and raise_on_error:
                assert entry.error is not None
                raise entry.error
            yield JobCompletion(
                job=entry.job,
                result=entry.result,
                provenance=entry.provenance or entry.state or "",
                index=entry.index,
                error=entry.error,
            )

    def iter_results(self) -> Iterator[GanResult]:
        """Yield results in submission order, blocking per slot.

        Raises the failing job's exception at its slot and
        :class:`concurrent.futures.CancelledError` for cancelled jobs —
        matching the blocking semantics of ``run_jobs()``.
        """
        for entry in self._entries:
            self._wait_terminal(entry)
            if entry.state == _KIND_CANCELLED:
                raise CancelledError()
            if entry.error is not None:
                raise entry.error
            assert entry.result is not None
            yield entry.result

    def results(self) -> List[GanResult]:
        """Block until every job finished; results in submission order."""
        return list(self.iter_results())

    def cancel(self) -> int:
        """Cancel every job that has not started; returns how many were.

        Cache hits, duplicates of resolved jobs and already-running or
        finished jobs are unaffected; their results remain consumable.
        Batch duplicates follow their primary.  Idempotent.
        """
        cancelled = 0
        for entry in self._entries:
            if entry.primary is not None:
                continue  # duplicates resolve with their primary
            future = entry.future
            if future is None:
                continue  # resolved at submission (cache hit)
            if future.cancel():
                cancelled += 1
        return cancelled

    # ------------------------------------------------------------------
    # Producer-side wiring (called by SimulationRunner)
    # ------------------------------------------------------------------
    def _emit(self, event: RunnerEvent) -> None:
        for listener in self._listeners:
            try:
                listener(event)
            except Exception:
                pass  # observability must not corrupt the batch

    def _emit_lifecycle(self, kind: str, entry: _Entry) -> None:
        """Emit a non-terminal event (scheduled / deduped / started)."""
        self._emit(
            RunnerEvent(
                kind=kind, job=entry.job, index=entry.index, job_uid=entry.uid
            )
        )

    def _attach_future(self, entry: _Entry, future: JobFuture) -> None:
        entry.future = future
        future.add_running_callback(
            lambda _f, entry=entry: self._emit_lifecycle("started", entry)
        )

    def _register_duplicate(self, entry: _Entry, primary: _Entry) -> None:
        """Tie ``entry``'s outcome to ``primary``'s (same cache key)."""
        entry.primary = primary
        with self._cond:
            pending = primary.state is None
            if pending:
                primary.duplicates.append(entry)
            else:
                kind, result, error = primary.state, primary.result, primary.error
        if not pending:
            self._resolve(
                entry,
                kind,
                result=result,
                error=error,
                provenance=PROVENANCE_DEDUPLICATED,
            )

    def _resolve(
        self,
        entry: _Entry,
        kind: str,
        result: Optional[GanResult] = None,
        error: Optional[BaseException] = None,
        provenance: Optional[str] = None,
    ) -> bool:
        """Move one entry to a terminal state, publish it, cascade to dups."""
        with self._cond:
            if entry.state is not None:
                return False
            entry.state = kind
            entry.result = result
            entry.error = error
            entry.provenance = provenance
            duplicates = list(entry.duplicates)
            self._ready.append(entry)
            self._terminal += 1
            self._counts[kind] += 1
            # The entry that completes the batch also closes the batch span;
            # taking it under the lock makes the close exactly-once even when
            # a driving thread races the submitting thread to the last slot.
            batch_span = None
            if self._batch_span is not None and self._terminal >= len(self._entries):
                batch_span = self._batch_span
                self._batch_span = None
                final_counts = dict(self._counts)
            self._cond.notify_all()
        if entry.span is not None and self._tracer is not None:
            self._tracer.end(entry.span, outcome=kind, provenance=provenance)
            entry.span = None
        self._emit(
            RunnerEvent(
                kind=kind,
                job=entry.job,
                index=entry.index,
                provenance=provenance,
                result=result,
                error=error,
                job_uid=entry.uid,
            )
        )
        for duplicate in duplicates:
            self._resolve(
                duplicate,
                kind,
                result=result,
                error=error,
                provenance=PROVENANCE_DEDUPLICATED,
            )
        if batch_span is not None and self._tracer is not None:
            self._tracer.end(batch_span, counts=final_counts)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_undriven_locked(self) -> Optional[_Entry]:
        """The next undriven job, marked as handed out (lock held).

        A persistent cursor keeps the scan amortised O(1) per drive: every
        skip condition is permanent (futures attach before the handle is
        consumable, ``driven`` and terminal states never revert), so entries
        behind the cursor never need revisiting.
        """
        while self._drive_cursor < len(self._entries):
            entry = self._entries[self._drive_cursor]
            self._drive_cursor += 1
            if entry.state is not None or entry.driven or entry.primary is not None:
                continue
            if entry.future is not None:
                entry.driven = True
                return entry
        return None

    def _wait_terminal(self, entry: _Entry) -> None:
        with self._cond:
            if entry.state is not None:
                return
        target = entry.primary if entry.primary is not None else entry
        future = target.future
        if future is not None:
            with self._cond:
                target.driven = True
            try:
                future.result()  # drives the job; callbacks resolve us
            except BaseException:
                pass  # outcome (error/cancellation) captured on the entry
        with self._cond:
            while entry.state is None:
                self._cond.wait()
