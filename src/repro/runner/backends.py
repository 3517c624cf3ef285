"""The runner's execution backend: consumer-driven job futures.

A backend turns :class:`~repro.runner.job.SimulationJob` objects into
:class:`~repro.analysis.results.GanResult` objects through an
**incremental** protocol: :meth:`SerialBackend.submit_jobs` returns one
:class:`JobFuture` per job, so the runner (and through it every
``as_completed()`` consumer) observes each job the moment it finishes
instead of waiting for the slowest job of the batch.

The runner guarantees the batch it dispatches is already deduplicated and
cache-filtered, so the backend only ever sees work that must actually run.

Nothing executes at submission: a job runs in the consumer's thread the
first time its future is driven (``result()`` or the handle's iterators),
so streaming has no scheduling overhead and completion order equals the
order the consumer drives jobs in.  The estimator is pure Python under the
interpreter lock, so worker threads would add no overlap; a service that
serves many clients drives each batch from its own executor thread.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError
from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.results import GanResult
from ..telemetry import get_metrics
from .job import SimulationJob, execute_job

_PENDING = "pending"
_RUNNING = "running"
_FINISHED = "finished"
_CANCELLED = "cancelled"


class JobFuture:
    """Per-job future whose job runs in the thread that first drives it.

    Unlike :class:`concurrent.futures.Future`, done-callbacks are guaranteed
    to have finished running before any :meth:`result` call returns — the
    runner relies on this to make "the future is done" imply "the result is
    cached, accounted and published to the batch handle".

    The atomic pending -> running transition (:meth:`set_running`) is the
    cancellation gate: :meth:`cancel` only wins while the job has not
    started, so a job that begins executing always delivers its result.
    """

    def __init__(self, job: SimulationJob) -> None:
        self._job = job
        self._cond = threading.Condition()
        self._state = _PENDING
        self._result: Optional[GanResult] = None
        self._error: Optional[BaseException] = None
        self._settled = False  # state terminal AND all done-callbacks ran
        self._done_callbacks: List[Callable[["JobFuture"], None]] = []
        self._running_callbacks: List[Callable[["JobFuture"], None]] = []

    # -- observation ----------------------------------------------------
    def done(self) -> bool:
        with self._cond:
            return self._settled

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == _CANCELLED

    def exception(self) -> Optional[BaseException]:
        """The stored error (only meaningful once the future is done)."""
        with self._cond:
            return self._error

    def peek_result(self) -> Optional[GanResult]:
        """The stored result without blocking (None until finished)."""
        with self._cond:
            return self._result

    def result(self, timeout: Optional[float] = None) -> GanResult:
        """Drive the job, wait for it to settle and return (or raise) its outcome.

        Raises :class:`concurrent.futures.CancelledError` for cancelled jobs
        and re-raises the job's own exception for failed ones.
        """
        self.drive()
        with self._cond:
            if not self._cond.wait_for(lambda: self._settled, timeout):
                raise TimeoutError("job did not complete within the timeout")
            if self._state == _CANCELLED:
                raise CancelledError()
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result

    # -- callbacks ------------------------------------------------------
    def add_running_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Invoke ``fn(self)`` when the job starts (immediately if it has)."""
        with self._cond:
            if self._state == _PENDING:
                self._running_callbacks.append(fn)
                return
            already_started = self._state in (_RUNNING, _FINISHED)
        if already_started:
            fn(self)

    def add_done_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Invoke ``fn(self)`` once the future settles (immediately if done)."""
        with self._cond:
            if not self._settled:
                self._done_callbacks.append(fn)
                return
        fn(self)

    # -- transitions ----------------------------------------------------
    def drive(self) -> None:
        """Execute the job in this thread, unless it started or was cancelled."""
        if not self.set_running():
            return
        try:
            result = execute_job(self._job)
        except BaseException as exc:
            self.set_exception(exc)
        else:
            self.set_result(result)

    def set_running(self) -> bool:
        """Atomically move pending -> running; False if that race was lost."""
        with self._cond:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            callbacks = self._running_callbacks[:]
            del self._running_callbacks[:]
        for fn in callbacks:
            self._safe_call(fn)
        return True

    def set_result(self, result: GanResult) -> bool:
        return self._settle(_FINISHED, result=result)

    def set_exception(self, error: BaseException) -> bool:
        return self._settle(_FINISHED, error=error)

    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when (already) cancelled."""
        with self._cond:
            if self._state == _CANCELLED:
                return True
            if self._state != _PENDING:
                return False
        return self._settle(_CANCELLED, only_from=(_PENDING,))

    # -- internals ------------------------------------------------------
    def _settle(
        self,
        state: str,
        result: Optional[GanResult] = None,
        error: Optional[BaseException] = None,
        only_from: Optional[Tuple[str, ...]] = None,
    ) -> bool:
        with self._cond:
            if self._state in (_FINISHED, _CANCELLED):
                return False
            if only_from is not None and self._state not in only_from:
                return False
            self._state = state
            self._result = result
            self._error = error
        # Run every done-callback *before* waking result() waiters, looping
        # so callbacks registered concurrently are never dropped.
        try:
            while True:
                with self._cond:
                    if not self._done_callbacks:
                        self._settled = True
                        self._cond.notify_all()
                        return True
                    callbacks = self._done_callbacks[:]
                    del self._done_callbacks[:]
                for fn in callbacks:
                    self._safe_call(fn)
        finally:
            # A callback escaping with a BaseException (a KeyboardInterrupt,
            # say) must still leave the future settled: the terminal state is
            # already recorded, and an unsettled-forever future would hang
            # every result() waiter and as_completed() consumer.
            with self._cond:
                if not self._settled:
                    self._settled = True
                    self._cond.notify_all()

    def _safe_call(self, fn: Callable[["JobFuture"], None]) -> None:
        # A raising callback must not leave the future unsettled (that would
        # deadlock every waiter); the runner's callbacks never raise.  Only
        # Exception is swallowed — BaseException (interrupts) propagates, and
        # _settle's finally block keeps the future settled even then.
        try:
            fn(self)
        except Exception:
            pass


class SerialBackend:
    """Execute jobs in the calling process, one at a time, on demand.

    ``submit_jobs`` returns undriven futures: nothing runs until a consumer
    drives them, and each job then executes synchronously in that
    consumer's thread.  Draining a batch in submission order is therefore
    exactly a plain serial loop — same order, same thread, no pool.

    :class:`~repro.runner.runner.SimulationRunner` accepts this class (or a
    subclass, which is how tests inject faults) as its ``backend``.
    """

    #: The ``backend`` label of the ``backend.jobs.*`` metrics.
    name = "serial"

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        """Accept every job, returning one :class:`JobFuture` per job (in order).

        Accounts the batch in the ``backend.jobs.dispatched`` counter and the
        ``backend.jobs.inflight`` gauge; the gauge decrements from each
        future's done-callback, which runs before any ``result()`` returns,
        so it never under-counts work a consumer can still be waiting on.
        """
        futures = [JobFuture(job) for job in jobs]
        registry = get_metrics()
        if futures and registry is not None:
            registry.counter("backend.jobs.dispatched", backend=self.name).inc(
                len(futures)
            )
            inflight = registry.gauge("backend.jobs.inflight", backend=self.name)
            inflight.inc(len(futures))
            for future in futures:
                future.add_done_callback(lambda _f, g=inflight: g.dec())
        return futures
