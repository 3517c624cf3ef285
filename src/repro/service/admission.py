"""Admission control for the simulation service.

Two cooperating pieces, both plain synchronous data structures (the server
drives them from its event loop; unit tests drive them directly):

* :class:`AdmissionController` — decides whether a batch may enter.  Each
  client holds at most ``quota`` in-flight jobs (admitted but not yet
  terminal) and the server holds at most ``queue_limit`` in-flight jobs in
  total; a batch that would exceed either bound is refused with the
  machine-readable code the wire-level ``rejected`` record carries
  (``"quota"`` / ``"queue-full"``).  Admission is all-or-nothing per batch —
  partially admitting a comparison grid would hand the client an
  uninterpretable half-result.

* :class:`RoundRobinQueue` — orders admitted batches for dispatch.  One FIFO
  per client, drained one batch per client per turn, so a client saturating
  its quota with many batches cannot starve a light client: the light
  client's single batch dispatches after at most one batch from each other
  active client, regardless of how deep any backlog is.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, Generic, Optional, Tuple, TypeVar

from ..errors import ServiceError
from ..telemetry import get_metrics
from .protocol import REJECT_QUEUE_FULL, REJECT_QUOTA

T = TypeVar("T")

#: Default per-client in-flight job quota.
DEFAULT_QUOTA = 64
#: Default server-wide in-flight job bound.
DEFAULT_QUEUE_LIMIT = 1024


class AdmissionController:
    """Per-client quota and server-wide bound over in-flight jobs.

    Thread-safe, so admits and releases may come from any thread.
    """

    def __init__(
        self, quota: int = DEFAULT_QUOTA, queue_limit: int = DEFAULT_QUEUE_LIMIT
    ) -> None:
        if quota <= 0:
            raise ServiceError(f"quota must be > 0, got {quota}")
        if queue_limit <= 0:
            raise ServiceError(f"queue_limit must be > 0, got {queue_limit}")
        self._quota = quota
        self._queue_limit = queue_limit
        self._lock = threading.Lock()
        self._inflight: Dict[str, int] = {}
        self._total = 0

    @property
    def quota(self) -> int:
        return self._quota

    @property
    def queue_limit(self) -> int:
        return self._queue_limit

    def inflight(self, client: Optional[str] = None) -> int:
        """In-flight jobs for one client, or server-wide when None."""
        with self._lock:
            if client is None:
                return self._total
            return self._inflight.get(client, 0)

    def try_admit(self, client: str, jobs: int) -> Optional[Tuple[str, str]]:
        """Admit ``jobs`` for ``client``, or explain the refusal.

        Returns None when admitted (the counters are committed and the
        caller owes a matching :meth:`release`), else a ``(code, reason)``
        pair for the ``rejected`` record and no state changes.
        """
        if jobs <= 0:
            raise ServiceError(f"cannot admit a batch of {jobs} jobs")
        refusal: Optional[Tuple[str, str]] = None
        with self._lock:
            held = self._inflight.get(client, 0)
            if held + jobs > self._quota:
                refusal = (
                    REJECT_QUOTA,
                    f"client '{client}' holds {held} in-flight jobs; admitting "
                    f"{jobs} more would exceed the per-client quota of "
                    f"{self._quota}",
                )
            elif self._total + jobs > self._queue_limit:
                refusal = (
                    REJECT_QUEUE_FULL,
                    f"server holds {self._total} in-flight jobs; admitting "
                    f"{jobs} more would exceed the queue limit of "
                    f"{self._queue_limit}",
                )
            else:
                self._inflight[client] = held + jobs
                self._total += jobs
                total = self._total
        # Metric updates sit outside self._lock: the registry has its own
        # locking and the admission lock is on the request hot path.
        registry = get_metrics()
        if registry is not None:
            if refusal is None:
                registry.counter("service.admission.accepted", client=client).inc()
                registry.gauge("service.admission.inflight_jobs").set(total)
            else:
                registry.counter(
                    "service.admission.rejected", client=client, code=refusal[0]
                ).inc()
        return refusal

    def release(self, client: str, jobs: int) -> None:
        """Return ``jobs`` previously admitted for ``client``."""
        with self._lock:
            held = self._inflight.get(client, 0)
            remaining = max(0, held - jobs)
            if remaining:
                self._inflight[client] = remaining
            else:
                self._inflight.pop(client, None)
            self._total = max(0, self._total - jobs)
            total = self._total
        registry = get_metrics()
        if registry is not None:
            registry.gauge("service.admission.inflight_jobs").set(total)


class RoundRobinQueue(Generic[T]):
    """Per-client FIFOs drained round-robin, one item per client per turn.

    Not thread-safe by itself — the server mutates it from one event loop;
    tests drive it directly.  Clients keep their slot in the rotation for as
    long as they have queued items; the rotation cursor survives pushes, so
    a client that keeps refilling its queue cannot jump the line.
    """

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, Deque[T]]" = OrderedDict()
        self._rotation: Deque[str] = deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def pending(self, client: str) -> int:
        queue = self._queues.get(client)
        return len(queue) if queue is not None else 0

    def push(self, client: str, item: T) -> None:
        queue = self._queues.get(client)
        if queue is None:
            queue = deque()
            self._queues[client] = queue
            self._rotation.append(client)  # joins at the back of the rotation
        queue.append(item)
        self._size += 1

    def pop(self) -> Tuple[str, T]:
        """The next (client, item) in round-robin order; raises when empty."""
        if not self._size:
            raise IndexError("pop from an empty RoundRobinQueue")
        while True:
            client = self._rotation.popleft()
            queue = self._queues.get(client)
            if queue is None or not queue:
                # client drained earlier in the rotation; drop the stale slot
                self._queues.pop(client, None)
                continue
            item = queue.popleft()
            self._size -= 1
            if queue:
                self._rotation.append(client)  # back of the line for its next
            else:
                del self._queues[client]
            return client, item
