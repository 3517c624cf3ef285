"""Pluggable execution backends for the simulation runner.

A backend turns :class:`~repro.runner.job.SimulationJob` objects into
:class:`~repro.analysis.results.GanResult` objects.  Since the streaming
redesign the protocol is **incremental**: :meth:`ExecutionBackend.submit_jobs`
returns one :class:`JobFuture` per job, so the runner (and through it every
``as_completed()`` consumer) observes each job the moment it finishes instead
of waiting for the slowest job of the batch.  The blocking
:meth:`ExecutionBackend.run_jobs` is a convenience wrapper that drains the
futures in submission order.

The runner guarantees the batch it dispatches is already deduplicated and
cache-filtered, so a backend only ever sees work that must actually run.

* :class:`SerialBackend` — in-process, zero-thread reference implementation.
  Its futures are *deferred*: the job executes in the consumer's thread the
  first time the future is driven (``result()`` or the handle's iterators),
  so serial streaming has no scheduling overhead and completion order equals
  submission order.  :class:`AsyncioBackend` must match it bit-for-bit
  (enforced by the parity tests in ``tests/test_runner.py`` /
  ``tests/test_streaming.py``).
* :class:`AsyncioBackend` — an asyncio event loop on a dedicated thread,
  offloading each job to a thread pool (``loop.run_in_executor``).  This is
  the integration point for event-driven services: the loop can multiplex
  thousands of in-flight jobs, and cancellation propagates through asyncio's
  native task cancellation.

Backends are addressable by name through :func:`get_backend`
(``"serial"``, ``"asyncio"``) — the CLI's ``--backend``
flag resolves through this registry.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.results import GanResult
from ..errors import ConfigurationError
from ..telemetry import get_metrics
from .job import SimulationJob, execute_job

_PENDING = "pending"
_RUNNING = "running"
_FINISHED = "finished"
_CANCELLED = "cancelled"


class JobFuture:
    """Minimal per-job future shared by every backend.

    Unlike :class:`concurrent.futures.Future`, done-callbacks are guaranteed
    to have finished running before any :meth:`result` call returns — the
    runner relies on this to make "the future is done" imply "the result is
    cached, accounted and published to the batch handle".

    Futures come in two flavours:

    * **passive** (``passive = True``) — nothing executes until a consumer
      *drives* the future (:meth:`drive`, or implicitly :meth:`result`); the
      job then runs synchronously in the consumer's thread.  This is how
      :class:`SerialBackend` streams without threads.
    * **active** — the backend executes the job elsewhere (an asyncio
      executor thread) and settles the future when it lands.
    """

    #: Whether a consumer must drive this future for the job to execute.
    passive = False

    def __init__(self) -> None:
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
        """Block until the job finishes and return (or raise) its outcome.

        Driving a passive future executes the job in this thread.  Raises
        :class:`concurrent.futures.CancelledError` for cancelled jobs and
        re-raises the job's own exception for failed ones.
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

    def drive(self) -> None:
        """Execute a passive future's job in this thread (no-op otherwise)."""

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


class DeferredJobFuture(JobFuture):
    """Passive future: the job runs when a consumer drives it (serial backend)."""

    passive = True

    def __init__(
        self,
        job: SimulationJob,
        fn: Callable[[SimulationJob], GanResult] = execute_job,
    ) -> None:
        super().__init__()
        self._job = job
        self._fn = fn

    def drive(self) -> None:
        if not self.set_running():  # already driven elsewhere, or cancelled
            return
        try:
            result = self._fn(self._job)
        except BaseException as exc:
            self.set_exception(exc)
        else:
            self.set_result(result)


def _record_dispatch(backend_name: str, futures: Sequence[JobFuture]) -> None:
    """Account a dispatched batch: per-backend dispatch counter + in-flight gauge.

    The in-flight gauge decrements from each future's done-callback, which a
    :class:`JobFuture` guarantees runs before any ``result()`` returns — so
    the gauge never under-counts work a consumer can still be waiting on.
    No-op (one ``None`` check) when metrics are disabled.
    """
    if not futures:
        return
    registry = get_metrics()
    if registry is None:
        return
    registry.counter("backend.jobs.dispatched", backend=backend_name).inc(
        len(futures)
    )
    inflight = registry.gauge("backend.jobs.inflight", backend=backend_name)
    inflight.inc(len(futures))
    for future in futures:
        future.add_done_callback(lambda _f, g=inflight: g.dec())


class ExecutionBackend:
    """Interface of a runner execution backend (incremental protocol)."""

    #: Short identifier used in reports, benchmarks and :func:`get_backend`.
    name: str = "abstract"

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        """Accept every job, returning one :class:`JobFuture` per job (in order).

        Must not block on job execution: futures resolve incrementally (or,
        for passive futures, when driven by the consumer).
        """
        raise NotImplementedError

    def run_jobs(self, jobs: Sequence[SimulationJob]) -> List[GanResult]:
        """Blocking convenience: execute every job, results in input order."""
        return [future.result() for future in self.submit_jobs(jobs)]

    def close(self) -> None:
        """Release any resources (threads, loops); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Execute jobs in the calling process, one at a time, on demand.

    ``submit_jobs`` returns deferred futures: nothing runs until a consumer
    drives them, and each job then executes synchronously in that consumer's
    thread.  Draining a batch in submission order is therefore exactly the
    pre-streaming serial loop — same order, same thread, no pool — which is
    what keeps this backend the bit-for-bit reference.
    """

    name = "serial"

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        futures: List[JobFuture] = [DeferredJobFuture(job) for job in jobs]
        _record_dispatch(self.name, futures)
        return futures


class AsyncioBackend(ExecutionBackend):
    """Execute jobs through an asyncio event loop with thread offload.

    A dedicated thread runs the loop; each job becomes a coroutine awaiting
    ``loop.run_in_executor(thread_pool, execute_job, job)`` that settles the
    job's :class:`JobFuture` itself — the atomic pending->running transition
    doubles as the cancellation gate, so ``cancel()`` only ever succeeds for
    jobs that have not started (matching the serial backend).
    Results are identical to serial ones (the simulators are deterministic
    pure Python), and the loop gives event-driven services a natural
    integration point: it can hold many in-flight jobs with one pool of
    worker threads.
    """

    name = "asyncio"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # In-flight coroutine futures: close() must let them settle before
        # stopping the loop, or their JobFutures would never resolve.
        self._inflight: set = set()
        self._inflight_lock = threading.Lock()

    @property
    def max_workers(self) -> Optional[int]:
        return self._max_workers

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-asyncio-job",
            )
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name="repro-asyncio-loop",
                daemon=True,
            )
            self._thread.start()
        return self._loop

    async def _run(self, job: SimulationJob, future: JobFuture) -> None:
        # The atomic pending->running transition is the cancellation gate:
        # JobFuture.cancel() only wins while the job is still pending, so a
        # job that starts executing always delivers its result — the same
        # contract the serial backend honors.
        if not future.set_running():
            return  # cancelled before it started; the future is settled
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._executor, execute_job, job)
        except asyncio.CancelledError:
            # only close()'s drain cancels tasks, and it runs after every
            # in-flight submission settled — but never strand a waiter
            if not future.done():
                future.set_exception(CancelledError())
            raise
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)

    @staticmethod
    async def _drain() -> None:
        """Let every remaining task (incl. cancellation unwinds) finish."""
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def submit_jobs(self, jobs: Sequence[SimulationJob]) -> List[JobFuture]:
        if not jobs:
            return []
        loop = self._ensure_loop()
        futures: List[JobFuture] = []
        for job in jobs:
            future = JobFuture()
            inner = asyncio.run_coroutine_threadsafe(self._run(job, future), loop)
            with self._inflight_lock:
                self._inflight.add(inner)
            inner.add_done_callback(self._discard_inflight)
            futures.append(future)
        _record_dispatch(self.name, futures)
        return futures

    def _discard_inflight(self, inner) -> None:
        with self._inflight_lock:
            self._inflight.discard(inner)

    def close(self) -> None:
        if self._loop is None:
            return
        # Let every in-flight job settle first: stopping the loop underneath
        # an awaiting coroutine would leave its JobFuture unresolved forever.
        with self._inflight_lock:
            pending = list(self._inflight)
        if pending:
            futures_wait(pending)
        # Cancelled wrapper futures settle before their asyncio Tasks finish
        # unwinding; drain the loop so no Task is destroyed while pending.
        asyncio.run_coroutine_threadsafe(self._drain(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None and self._executor is not None
        self._thread.join()
        self._executor.shutdown(wait=True)
        self._loop.close()
        self._loop = self._thread = self._executor = None


#: Backend name -> factory, for the CLI's ``--backend`` flag and services
#: that configure execution by name.  Every factory accepts ``max_workers``
#: (ignored where meaningless) so the registry is uniform.
BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    SerialBackend.name: lambda max_workers=None: SerialBackend(),
    AsyncioBackend.name: AsyncioBackend,
}


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


def get_backend(name: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build an execution backend by registered name.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing
    every registered backend.
    """
    key = str(name).strip().lower()
    factory = BACKENDS.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown execution backend '{name}'; "
            f"available: {', '.join(backend_names())}"
        )
    return factory(max_workers=max_workers)
