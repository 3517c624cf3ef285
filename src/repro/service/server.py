"""The simulation server: one shared runner, many streaming clients.

:class:`SimulationServer` hosts a single
:class:`~repro.runner.SimulationRunner` behind an asyncio TCP endpoint
speaking the JSONL protocol of :mod:`repro.service.protocol`.  Because every
client's jobs funnel through one runner and one content-addressed cache,
**cross-client deduplication is free**: identical requests from different
clients collide on their ``cache_key`` — answered from cache when warm, and
held back while an identical job is executing for another client so the
second client's copy resolves as a cache hit instead of a re-simulation.

Layering, top to bottom:

* **Connections** (:class:`_Connection`) — one reader coroutine parsing
  requests, one writer task draining a per-client outbox of encoded lines:
  everything queued when it wakes goes out in one socket write.  The
  executor threads that drive jobs hand each group to the outbox with one
  ``loop.call_soon_threadsafe``, so the event loop stays single-threaded.
* **Admission** — every ``submit`` passes the
  :class:`~repro.service.admission.AdmissionController` (per-client quota +
  server-wide bound; refusals become wire ``rejected`` records) and then
  queues on a :class:`~repro.service.admission.RoundRobinQueue`.  The
  dispatcher drains that queue one batch per client per turn with at most
  ``max_active_requests`` batches in the runner at once, so a saturating
  client cannot starve a light one.
* **Execution** — a request's jobs are built with one config and options
  object per distinct override set (:func:`protocol.build_jobs
  <repro.service.protocol.build_jobs>`).  A dispatched batch is submitted
  to the shared runner from an executor thread, which also drives its jobs.
  Terminal :class:`~repro.runner.RunnerEvent` values are buffered and
  published in groups — the cache hits and duplicates resolved at
  submission, then each executed job as it completes.  Each event is
  encoded once as a wire ``event`` line, and those bytes are both the
  journal line and what the owning client reads.
* **Durability** — with a journal configured, each group of terminal events
  is one journal write plus fsync
  (:class:`~repro.service.journal.EventJournal`), then one socket write;
  no record is forwarded before its fsync.  A result's payload is journaled
  once per key per journal generation.  ``resume=True`` replays an existing
  journal into the result cache at startup, so a server restarted after a
  crash answers already-finished jobs from cache and a re-submitted sweep
  re-runs only the missing ones.
* **Shutdown** — :meth:`stop` stops accepting connections, refuses new
  submits (``rejected`` / ``shutting-down``), drains every queued and
  in-flight batch to completion, notifies connected clients with a
  ``shutdown`` record, then closes the journal.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..errors import ProtocolError, ReproError, ServiceError
from ..runner import RunnerEvent, SimulationJob, SimulationRunner
from ..runner.cache import get_layer_memo
from ..telemetry import get_metrics, get_tracer
from . import protocol
from .admission import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_QUOTA,
    AdmissionController,
    RoundRobinQueue,
)
from .journal import DEFAULT_ROTATE_BYTES, EventJournal

PathLike = Union[str, Path]

#: Default TCP port of the `repro-experiments serve` endpoint.
DEFAULT_PORT = 8642

#: Default number of batches concurrently submitted to the shared runner.
#: Small enough that round-robin order governs dispatch under backlog (the
#: fairness story), large enough to overlap independent clients' work.
DEFAULT_MAX_ACTIVE_REQUESTS = 4

_CLOSE = object()  # outbox sentinel terminating a connection's writer task


@dataclass
class _PendingRequest:
    """One admitted ``submit`` batch, queued for dispatch."""

    conn: "_Connection"
    client_id: str
    request_id: str
    jobs: List[SimulationJob] = field(default_factory=list)
    span: Optional[Any] = None  # open "request" tracing span (tracing on only)


class _Connection:
    """Server-side state of one client connection."""

    _ids = itertools.count(1)

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.client_id = f"conn-{next(self._ids)}"
        self.outbox: "asyncio.Queue[Any]" = asyncio.Queue()
        self.writer_task: Optional[asyncio.Task] = None
        self.closed = False

    def push(self, record: Dict[str, Any]) -> None:
        """Encode and enqueue a record (loop thread only; drops if closed)."""
        if not self.closed:
            self.outbox.put_nowait(protocol.encode(record))

    def send(self, data: bytes) -> None:
        """Enqueue encoded lines for delivery (loop thread only; drops if closed)."""
        if not self.closed:
            self.outbox.put_nowait(data)

    async def write_loop(self) -> None:
        """Drain the outbox onto the socket until the close sentinel.

        Everything queued when the loop wakes goes out as one socket write
        and one drain; lines queued before the sentinel are sent first.
        """
        while True:
            item = await self.outbox.get()
            chunks = []
            while item is not _CLOSE:
                chunks.append(item)
                if self.outbox.empty():
                    break
                item = self.outbox.get_nowait()
            if chunks:
                try:
                    self.writer.write(b"".join(chunks))
                    await self.writer.drain()
                except (ConnectionError, OSError):
                    # Client vanished mid-push.  Its jobs keep running —
                    # results still land in the shared cache and the journal
                    # — but there is no one left to narrate to.
                    self.closed = True
                    return
            if item is _CLOSE:
                return

    async def close(self) -> None:
        """Flush queued records, then close the socket (idempotent)."""
        if self.writer_task is not None and not self.writer_task.done():
            self.outbox.put_nowait(_CLOSE)
            await self.writer_task
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SimulationServer:
    """A long-running simulation service over one shared runner.

    Parameters
    ----------
    host, port:
        TCP endpoint.  ``port=0`` binds an ephemeral port; read the bound
        one from :attr:`port` after :meth:`start`.
    runner:
        The shared :class:`SimulationRunner`.  When omitted the server
        builds a plain ``SimulationRunner()`` with an in-memory cache; pass
        a runner with a :class:`~repro.runner.DiskResultCache` to share warm
        results with a worker fleet.
    quota, queue_limit:
        Admission-control bounds: per-client and server-wide in-flight jobs.
    max_active_requests:
        Batches concurrently submitted to the runner; queued batches beyond
        this drain in round-robin client order.
    journal_path:
        JSONL journal of terminal job events (durability + resume).  With
        ``resume=True`` an existing journal is replayed into the result
        cache before serving (:attr:`restored_entries` reports how many).
    heartbeat_seconds:
        Interval of the periodic heartbeat line on stderr (uptime, jobs
        done, queue depth).  ``0`` disables the heartbeat (and the startup
        banner stays — it prints once from :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        runner: Optional[SimulationRunner] = None,
        quota: int = DEFAULT_QUOTA,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_active_requests: int = DEFAULT_MAX_ACTIVE_REQUESTS,
        journal_path: Optional[PathLike] = None,
        resume: bool = False,
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        heartbeat_seconds: float = 60.0,
    ) -> None:
        if max_active_requests <= 0:
            raise ServiceError(
                f"max_active_requests must be > 0, got {max_active_requests}"
            )
        self._host = host
        self._requested_port = port
        self._runner = runner if runner is not None else SimulationRunner()
        self._admission = AdmissionController(quota=quota, queue_limit=queue_limit)
        self._max_active = max_active_requests
        self.restored_entries = 0
        if journal_path is not None and resume:
            if self._runner.cache is None:
                raise ServiceError(
                    "--resume needs a result cache to replay the journal into; "
                    "the runner was built with use_cache=False"
                )
            if Path(journal_path).exists():
                self.restored_entries = EventJournal.replay_into(
                    journal_path, self._runner.cache
                )
        self._journal = (
            EventJournal(journal_path, rotate_bytes=rotate_bytes)
            if journal_path is not None
            else None
        )
        # Executor submitting batches to the runner and driving their jobs:
        # one thread per active request slot keeps `max_active_requests` an
        # honest bound rather than fighting the default executor's sizing.
        self._executor = ThreadPoolExecutor(
            max_workers=max_active_requests, thread_name_prefix="repro-service"
        )

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._bound_port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: Set[_Connection] = set()
        self._rr: "RoundRobinQueue[_PendingRequest]" = RoundRobinQueue()
        self._dispatch_cond: Optional[asyncio.Condition] = None
        self._dispatch_task: Optional[asyncio.Task] = None
        self._request_tasks: Set[asyncio.Task] = set()
        self._inflight_keys: Dict[str, asyncio.Event] = {}
        self._active = 0
        self._stopping = False
        self._stopped = False
        # Telemetry: lifetime counters (jobs_done updated from executor
        # threads, hence the lock) and the heartbeat task.
        self._heartbeat_seconds = heartbeat_seconds
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._started_at: Optional[float] = None
        self._counts_lock = threading.Lock()
        self._jobs_done = 0
        self._requests_done = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runner(self) -> SimulationRunner:
        return self._runner

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful once started)."""
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the endpoint and start dispatching (call once, on a loop)."""
        if self._server is not None:
            raise ServiceError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._dispatch_cond = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        restored = (
            f", restored {self.restored_entries} journal entries"
            if self.restored_entries
            else ""
        )
        print(
            f"repro-service: listening on {self._host}:{self._bound_port} "
            f"(schema v{protocol.SCHEMA_VERSION}, backend=serial, "
            f"quota={self._admission.quota}, "
            f"queue-limit={self._admission.queue_limit}{restored})",
            file=sys.stderr,
        )
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())
        if self._heartbeat_seconds > 0:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def serve_forever(self) -> None:
        """Convenience: :meth:`start` then serve until cancelled."""
        await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain in-flight jobs, close."""
        if self._stopped:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._dispatch_cond is not None
        async with self._dispatch_cond:
            self._dispatch_cond.notify_all()
            # Drain: every admitted batch — queued or executing — completes.
            await self._dispatch_cond.wait_for(
                lambda: not len(self._rr) and self._active == 0
            )
        if self._dispatch_task is not None:
            await self._dispatch_task
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        if self._request_tasks:
            await asyncio.gather(*self._request_tasks, return_exceptions=True)
        for conn in list(self._connections):
            conn.push(protocol.shutdown_record())
            await conn.close()
        self._connections.clear()
        if self._journal is not None:
            self._journal.close()
        self._executor.shutdown(wait=True)
        self._stopped = True

    # -- threaded wrapper (tests, the CLI's `serve` verb) ---------------
    def start_in_thread(self) -> None:
        """Run the server on a dedicated event-loop thread; returns when bound."""
        if self._thread is not None:
            raise ServiceError("server thread is already running")
        started = threading.Event()
        failure: List[BaseException] = []

        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # bind failure: surface to caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Thread-safe graceful stop of a :meth:`start_in_thread` server."""
        if self._thread is None or self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.stop(), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "SimulationServer":
        self.start_in_thread()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            if not await self._handshake(conn):
                return
            conn.writer_task = asyncio.create_task(conn.write_loop())
            conn.push(
                protocol.welcome_record(
                    self._admission.quota, self._admission.queue_limit
                )
            )
            await self._read_loop(conn)
        finally:
            await conn.close()
            self._connections.discard(conn)

    async def _handshake(self, conn: _Connection) -> bool:
        """Read and validate the ``hello``; False closes the connection."""
        line = await conn.reader.readline()
        if not line:
            return False
        try:
            record = protocol.decode(line)
            if record.get("type") != "hello":
                raise ProtocolError(
                    f"first record must be 'hello', got {record.get('type')!r}"
                )
            protocol.check_schema(record, source="hello record")
        except ProtocolError as exc:
            code = (
                protocol.REJECT_SCHEMA_MISMATCH
                if "schema_version" in str(exc)
                else protocol.REJECT_BAD_REQUEST
            )
            try:
                conn.writer.write(
                    protocol.encode(protocol.rejected_record(code, str(exc)))
                )
                await conn.writer.drain()
            except (ConnectionError, OSError):
                pass
            return False
        client = record.get("client")
        if isinstance(client, str) and client:
            conn.client_id = client
        return True

    async def _read_loop(self, conn: _Connection) -> None:
        while True:
            line = await conn.reader.readline()
            if not line:
                return  # client vanished; its in-flight jobs keep running
            try:
                record = protocol.decode(line)
                protocol.check_schema(record, source="request record")
            except ProtocolError as exc:
                conn.push(protocol.error_record(str(exc)))
                continue
            request_type = record.get("type")
            if request_type == "bye":
                conn.push(protocol.goodbye_record())
                return
            if request_type == "stats":
                conn.push(protocol.stats_record(self._stats_payload()))
                continue
            if request_type == "submit":
                await self._handle_submit(conn, record)
            else:
                conn.push(
                    protocol.error_record(
                        f"unknown request type {request_type!r}"
                    )
                )

    async def _handle_submit(
        self, conn: _Connection, record: Dict[str, Any]
    ) -> None:
        raw_id = record.get("request_id")
        fallback_id = raw_id if isinstance(raw_id, str) else None
        try:
            request_id, specs = protocol.parse_submit(record)
            jobs = protocol.build_jobs(specs)
        except (ProtocolError, ReproError, TypeError, ValueError) as exc:
            conn.push(
                protocol.rejected_record(
                    protocol.REJECT_BAD_REQUEST, str(exc), fallback_id
                )
            )
            return
        tracer = get_tracer()
        span = None
        if tracer is not None:
            span = tracer.begin(
                "request",
                client=conn.client_id,
                request_id=request_id,
                jobs=len(jobs),
            )
        if self._stopping:
            conn.push(
                protocol.rejected_record(
                    protocol.REJECT_SHUTTING_DOWN,
                    "server is draining and accepts no new work",
                    request_id,
                )
            )
            if span is not None:
                tracer.end(span, outcome="rejected", code=protocol.REJECT_SHUTTING_DOWN)
            return
        admission_span = (
            tracer.begin("admission", parent_id=span.span_id)
            if tracer is not None
            else None
        )
        refusal = self._admission.try_admit(conn.client_id, len(jobs))
        if admission_span is not None:
            tracer.end(admission_span, admitted=refusal is None)
        if refusal is not None:
            code, reason = refusal
            conn.push(protocol.rejected_record(code, reason, request_id))
            if span is not None:
                tracer.end(span, outcome="rejected", code=code)
            return
        conn.push(protocol.accepted_record(request_id, len(jobs)))
        pending = _PendingRequest(conn, conn.client_id, request_id, jobs, span=span)
        assert self._dispatch_cond is not None
        async with self._dispatch_cond:
            self._rr.push(conn.client_id, pending)
            self._update_queue_gauges()
            self._dispatch_cond.notify_all()

    # ------------------------------------------------------------------
    # Dispatch and execution
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._dispatch_cond is not None
        while True:
            async with self._dispatch_cond:
                await self._dispatch_cond.wait_for(
                    lambda: (len(self._rr) and self._active < self._max_active)
                    or (self._stopping and not len(self._rr))
                )
                if not len(self._rr):
                    return  # stopping, queue fully drained
                _client, pending = self._rr.pop()
                self._active += 1
                self._update_queue_gauges()
            task = asyncio.create_task(self._run_request(pending))
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)

    async def _run_request(self, pending: _PendingRequest) -> None:
        loop = asyncio.get_running_loop()
        keys = {job.cache_key for job in pending.jobs}
        tracer = get_tracer()
        dispatch_span = (
            tracer.begin(
                "dispatch",
                parent_id=pending.span.span_id if pending.span else None,
                jobs=len(pending.jobs),
            )
            if tracer is not None
            else None
        )
        started = time.monotonic()
        outcome = "done"
        try:
            # Cross-client dedup for *concurrent* identical work: while
            # another request is executing any of our cache keys, hold this
            # batch back — when it proceeds, the shared cache answers those
            # jobs as hits instead of re-simulating them.
            while True:
                conflicts = [
                    self._inflight_keys[key]
                    for key in keys
                    if key in self._inflight_keys
                ]
                if not conflicts:
                    break
                await conflicts[0].wait()
            for key in keys:
                self._inflight_keys[key] = asyncio.Event()
            try:
                # Event records reach the loop through call_soon_threadsafe,
                # queued before the executor future resolves, so `done` is
                # always the last record of the batch.
                counts = await loop.run_in_executor(
                    self._executor, self._execute, pending
                )
                pending.conn.push(
                    protocol.done_record(pending.request_id, counts)
                )
            finally:
                for key in keys:
                    event = self._inflight_keys.pop(key, None)
                    if event is not None:
                        event.set()
        except Exception as exc:  # defensive: a batch must always conclude
            outcome = "error"
            pending.conn.push(
                protocol.error_record(
                    f"request '{pending.request_id}' failed internally: {exc}"
                )
            )
        finally:
            self._admission.release(pending.client_id, len(pending.jobs))
            if tracer is not None:
                if dispatch_span is not None:
                    tracer.end(dispatch_span, outcome=outcome)
                if pending.span is not None:
                    tracer.end(pending.span, outcome=outcome)
            registry = get_metrics()
            if registry is not None:
                registry.counter("service.requests.done").inc()
                registry.histogram("service.request_latency_seconds").observe(
                    time.monotonic() - started
                )
            with self._counts_lock:
                self._requests_done += 1
            assert self._dispatch_cond is not None
            async with self._dispatch_cond:
                self._active -= 1
                self._update_queue_gauges()
                self._dispatch_cond.notify_all()

    # ------------------------------------------------------------------
    # Telemetry surfacing
    # ------------------------------------------------------------------
    def _update_queue_gauges(self) -> None:
        """Refresh the queue/active gauges (call with dispatch state settled)."""
        registry = get_metrics()
        if registry is None:
            return
        registry.gauge("service.queue_depth").set(len(self._rr))
        registry.gauge("service.active_requests").set(self._active)

    def _stats_payload(self) -> Dict[str, Any]:
        """The server's telemetry snapshot (the ``stats`` record's payload).

        Everything in one atomic-ish read: identity and uptime, live
        queue/connection state, lifetime request/job counters, the shared
        runner's cache accounting, the layer memo's accounting (when
        enabled), and the full metrics-registry snapshot (when metrics are
        enabled).  Consumed by the wire ``stats`` request and the CLI's
        ``stats`` verb.
        """
        with self._counts_lock:
            jobs_done = self._jobs_done
            requests_done = self._requests_done
        payload: Dict[str, Any] = {
            "server": protocol.SERVER_ID,
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "connections": len(self._connections),
            "queue_depth": len(self._rr),
            "active_requests": self._active,
            "requests_done": requests_done,
            "jobs_done": jobs_done,
            "restored_entries": self.restored_entries,
            "cache": self._runner.stats.as_dict(),
        }
        memo = get_layer_memo()
        if memo is not None:
            payload["layer_memo"] = memo.stats.as_dict()
        registry = get_metrics()
        if registry is not None:
            payload["metrics"] = registry.snapshot()
        return payload

    async def _heartbeat_loop(self) -> None:
        """Print a one-line liveness heartbeat to stderr every interval."""
        assert self._started_at is not None
        while True:
            await asyncio.sleep(self._heartbeat_seconds)
            with self._counts_lock:
                jobs_done = self._jobs_done
            uptime = time.monotonic() - self._started_at
            print(
                f"repro-service: heartbeat uptime={uptime:.0f}s "
                f"jobs_done={jobs_done} queue_depth={len(self._rr)} "
                f"active={self._active} connections={len(self._connections)}",
                file=sys.stderr,
            )

    def _execute(self, pending: _PendingRequest) -> Dict[str, int]:
        """Submit and drain one batch (executor thread; drives its jobs).

        Terminal events collect in a buffer as the runner emits them (in
        this thread: the batch handle runs each job in the thread that
        drives it) and are published as groups: once after ``submit()``
        returns, which covers every cache hit and batch duplicate, after
        each ``as_completed`` step, and once at the end for any left over.
        """
        buffered: List[RunnerEvent] = []

        def listener(event: RunnerEvent) -> None:
            if event.is_terminal:
                buffered.append(event)

        handle = self._runner.submit(pending.jobs, on_event=listener)
        self._publish(pending, buffered)
        for _completion in handle.as_completed(raise_on_error=False):
            self._publish(pending, buffered)
        self._publish(pending, buffered)
        return handle.counts()

    def _publish(self, pending: _PendingRequest, buffered: List[RunnerEvent]) -> None:
        """Journal a group of terminal events, then forward them to the client.

        Each event becomes one wire record, encoded once: the journal writes
        those bytes for every line without a payload, and the client gets
        them too.  The whole group is fsync'd with one append before it is
        handed to the loop thread in one call, which the connection sends in
        one socket write, so no client sees an event whose journal line is
        not yet durable.  The hand-off is queued before the executor future
        resolves, so ``done`` stays last.
        """
        if not buffered:
            return
        events = list(buffered)
        buffered.clear()
        records = [protocol.event_record(e, pending.request_id) for e in events]
        lines = [protocol.encode(record) for record in records]
        with self._counts_lock:
            self._jobs_done += len(events)
        registry = get_metrics()
        if registry is not None:
            registry.counter("service.jobs.done").inc(len(events))
        if self._journal is not None:
            try:
                self._journal.append(
                    [(record, e.result) for record, e in zip(records, events)],
                    lines,
                )
            except Exception as exc:
                # Journal failure must not fail the batch; it only costs
                # resumability.  Say so instead of dying silently.
                print(
                    f"repro-service: journal append failed: {exc}",
                    file=sys.stderr,
                )
        loop = self._loop
        assert loop is not None
        try:
            loop.call_soon_threadsafe(pending.conn.send, b"".join(lines))
        except RuntimeError:
            pass  # loop already closed (shutdown race): nothing to narrate
