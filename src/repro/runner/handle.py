"""The consumer side of the streaming execution API: :class:`BatchHandle`.

:meth:`SimulationRunner.submit() <repro.runner.runner.SimulationRunner.submit>`
returns a handle immediately; the handle then lets the caller consume the
batch however suits it:

* :meth:`BatchHandle.as_completed` — yield :class:`~repro.runner.events.
  JobCompletion` records *in completion order*, as results land.  Cache hits
  and batch duplicates resolve immediately, so warm batches stream without
  executing anything.
* :meth:`BatchHandle.iter_results` — yield plain results in *submission
  order*, blocking per slot (the streaming counterpart of the old batch
  return value).
* :meth:`BatchHandle.results` — block until everything finished and return
  the full list (this is exactly what
  :meth:`~repro.runner.SimulationRunner.run_jobs` does).
* :meth:`BatchHandle.cancel` — cancel every job that has not started.

The handle runs its jobs itself, lazily, *in the consuming thread*: nothing
executes at submission, and a job runs when an iterator reaches for it —
streaming costs nothing and completion order equals submission order.  Each
slot is taken exactly once, under the handle's lock, by setting its
``started`` flag: the thread that takes it either executes the job or (for
:meth:`BatchHandle.cancel`) cancels it.  So another thread's ``cancel()``
only wins for jobs nobody has started, and a second thread that wants a
running job waits for it instead of executing it again.

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
from .events import (
    PROVENANCE_DEDUPLICATED,
    JobCompletion,
    RunnerEvent,
)
from .job import SimulationJob, execute_job

EventListener = Callable[[RunnerEvent], None]

#: The runner's settle step for an executed (or cancelled) slot:
#: ``finish(handle, entry, kind, result, error)`` caches and accounts the
#: outcome, then calls :meth:`BatchHandle._resolve`.
FinishStep = Callable[
    ["BatchHandle", "_Entry", str, Optional[GanResult], Optional[BaseException]],
    None,
]

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
        "primary",
        "duplicates",
        "started",
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
        self.primary: Optional["_Entry"] = None  # set on batch duplicates
        self.duplicates: List["_Entry"] = []
        self.started = False  # taken by a thread, to execute or to cancel
        self.span: Optional[Any] = None  # open tracing span (tracing on only)


class BatchHandle:
    """A submitted batch of simulation jobs, consumable as a stream.

    Built by :meth:`SimulationRunner.submit`; not constructed directly.
    """

    def __init__(
        self,
        jobs: Sequence[SimulationJob],
        listeners: Sequence[EventListener],
        finish: FinishStep,
    ) -> None:
        self._jobs: Tuple[SimulationJob, ...] = tuple(jobs)
        self._listeners: Tuple[EventListener, ...] = tuple(listeners)
        self._finish = finish
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
        # The backend.jobs.inflight gauge the runner raised at dispatch
        # (metrics on only); the finish step lowers it once per slot.
        self._inflight: Optional[Any] = None

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
                    to_drive = self._claim_next_locked()
                    if to_drive is not None:
                        break
                    self._cond.wait()
            if entry is None:
                assert to_drive is not None
                self._run(to_drive)  # resolves the entry through the finish step
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
        matching the blocking semantics of
        :meth:`~repro.runner.SimulationRunner.run_jobs`.
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
        """Block until every job finished; results in submission order.

        If a slot raises (a failed or cancelled job), the batch's unstarted
        jobs are cancelled before the error propagates, so every job still
        gets its terminal event and nothing is left in flight.
        """
        try:
            return list(self.iter_results())
        except BaseException:
            self.cancel()
            raise

    def cancel(self) -> int:
        """Cancel every job that has not started; returns how many are cancelled.

        Cache hits, duplicates of resolved jobs and already-running or
        finished jobs are unaffected; their results remain consumable.
        Batch duplicates follow their primary.  Idempotent: a repeated call
        cancels nothing new and returns the same count.
        """
        for entry in self._entries:
            with self._cond:
                claimed = self._claim_locked(entry)
            if claimed:
                self._finish(self, entry, _KIND_CANCELLED, None, None)
        with self._cond:
            return sum(
                1
                for entry in self._entries
                if entry.primary is None and entry.state == _KIND_CANCELLED
            )

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
        try:
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
        finally:
            # A listener escaping with a BaseException (a KeyboardInterrupt,
            # say) must not strand the duplicates' waiters or the batch span:
            # this entry is already terminal, so they settle regardless.
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
    def _claim_locked(self, entry: _Entry) -> bool:
        """Take an unstarted executable slot for this thread (lock held).

        Executable means neither resolved at submission (cache hit) nor a
        batch duplicate.  Only one caller ever gets True per slot.
        """
        if entry.started or entry.state is not None or entry.primary is not None:
            return False
        entry.started = True
        return True

    def _claim_next_locked(self) -> Optional[_Entry]:
        """The next unstarted executable slot, taken (lock held).

        A persistent cursor keeps the scan amortised O(1) per claim: every
        skip condition is permanent (``started`` and terminal states never
        revert, and submission is over before the handle is consumable), so
        entries behind the cursor never need revisiting.
        """
        while self._drive_cursor < len(self._entries):
            entry = self._entries[self._drive_cursor]
            self._drive_cursor += 1
            if self._claim_locked(entry):
                return entry
        return None

    def _run(self, entry: _Entry) -> None:
        """Execute a slot this thread claimed and hand its outcome on."""
        try:
            self._emit_lifecycle("started", entry)
            result = execute_job(entry.job)
        except BaseException as exc:
            # Stored, as a future stores it: the slot fails, and the error
            # (interrupts included) re-raises wherever its result is read.
            self._finish(self, entry, _KIND_FAILED, None, exc)
        else:
            self._finish(self, entry, _KIND_COMPLETED, result, None)

    def _wait_terminal(self, entry: _Entry) -> None:
        target = entry.primary if entry.primary is not None else entry
        with self._cond:
            claimed = self._claim_locked(target)
        if claimed:
            self._run(target)  # resolves target and its duplicates
        with self._cond:
            while entry.state is None:
                self._cond.wait()
