"""Typed events and completion records of the streaming execution API.

Every job submitted through :meth:`~repro.runner.runner.SimulationRunner.submit`
moves through a small, observable life cycle.  The runner narrates it as
:class:`RunnerEvent` values delivered to subscribed listeners
(:meth:`~repro.runner.runner.SimulationRunner.subscribe` or the per-batch
``on_event`` argument), and the :class:`~repro.runner.handle.BatchHandle`
yields :class:`JobCompletion` records from ``as_completed()`` as results land.

The event grammar, per submitted job (in emission order):

``scheduled``
    always first — the job joined a batch at this submission index.
``deduped``
    an identical job (equal ``cache_key``) is already in the batch; this one
    will share the earlier job's outcome.
``cache-hit``
    terminal — the result came straight from the content-addressed cache.
``started``
    the job began executing: a consumer's thread started driving it.  A
    started job always delivers ``completed`` or ``failed``, never
    ``cancelled``.  Never emitted for cache hits or batch duplicates.
``completed``
    terminal — the job produced a result (``provenance`` says how:
    ``"executed"`` for a fresh simulation, ``"deduplicated"`` for a duplicate
    resolved by its primary).
``failed``
    terminal — execution raised; the exception travels on the event.
``cancelled``
    terminal — the job was cancelled before it produced a result.

**Invariant** (asserted by ``tests/test_streaming.py``): every submitted job
emits ``scheduled`` exactly once and then exactly one terminal event —
``cache-hit``, ``completed``, ``failed`` or ``cancelled``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis.results import GanResult
    from .job import SimulationJob

#: Version of the machine-readable record grammar produced by
#: :meth:`RunnerEvent.describe` — the format behind the CLI's ``--jsonl``
#: stream, the service wire protocol (:mod:`repro.service.protocol`) and the
#: service journal.  Bump it whenever a field changes meaning or disappears;
#: consumers (journal replay, service clients) reject mismatched versions
#: with an explicit message instead of silently misparsing old records.
#:
#: Version history:
#:
#: * **1** — the original grammar (event/index/model/accelerator plus
#:   optional provenance, result fields and error).
#: * **2** — adds a monotonic ``timestamp`` (seconds,
#:   :func:`time.monotonic` clock) and a per-submission ``job_uid``
#:   correlation id to every record.  Purely additive: every version-1 field
#:   is unchanged, so version-2 readers accept version-1 records (see
#:   ``MIN_COMPATIBLE_SCHEMA_VERSION`` in :mod:`repro.service.protocol`).
#:   Later version-2 streams also carry the job's ``schedule`` spec name —
#:   additive again, so the version number is unchanged.
RECORD_SCHEMA_VERSION: int = 2

#: Every event kind the runner emits, in life-cycle order.
EVENT_KINDS: Tuple[str, ...] = (
    "scheduled",
    "deduped",
    "cache-hit",
    "started",
    "completed",
    "failed",
    "cancelled",
)

#: Kinds that end a job's life cycle; each job gets exactly one of these.
TERMINAL_EVENT_KINDS = frozenset({"cache-hit", "completed", "failed", "cancelled"})

#: How a completed job's result was obtained.
PROVENANCE_CACHE = "cache"
PROVENANCE_EXECUTED = "executed"
PROVENANCE_DEDUPLICATED = "deduplicated"


@dataclass(frozen=True)
class RunnerEvent:
    """One step of one job's life cycle inside a submitted batch.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    job:
        The :class:`~repro.runner.job.SimulationJob` the event describes.
    index:
        The job's submission index within its batch (stable across events).
    provenance:
        For terminal events with a result: ``"cache"``, ``"executed"`` or
        ``"deduplicated"``.
    result:
        The :class:`~repro.analysis.results.GanResult` on ``cache-hit`` /
        ``completed`` events.
    error:
        The raised exception on ``failed`` events.
    timestamp:
        Monotonic time (:func:`time.monotonic` seconds) the event was
        created.  Comparable across every event of one process — the CLI's
        progress metrics and the telemetry subscriber derive per-job latency
        from ``terminal.timestamp - scheduled.timestamp`` — but *not* wall
        clock and not comparable across processes.
    job_uid:
        Correlation id of the submission slot this event narrates: every
        event of one submitted job carries the same uid, unique within the
        process.  Lets stream consumers (and trace viewers) join the
        ``scheduled``/``started``/terminal records of a job without relying
        on (batch, index) bookkeeping.
    """

    kind: str
    job: "SimulationJob"
    index: int
    provenance: Optional[str] = None
    result: Optional["GanResult"] = None
    error: Optional[BaseException] = None
    timestamp: float = field(default_factory=time.monotonic)
    job_uid: Optional[str] = None

    @property
    def is_terminal(self) -> bool:
        """Whether this event ends its job's life cycle."""
        return self.kind in TERMINAL_EVENT_KINDS

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly record of the event (used by the CLI's ``--jsonl``).

        Every record carries :data:`RECORD_SCHEMA_VERSION` so downstream
        consumers — journal replay, service clients, old tooling reading new
        streams — can reject records they do not understand.
        """
        record: Dict[str, Any] = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "event": self.kind,
            "index": self.index,
            "model": self.job.model_name,
            "accelerator": self.job.accelerator,
            "schedule": self.job.options.schedule,
            "timestamp": self.timestamp,
        }
        if self.job_uid is not None:
            record["job_uid"] = self.job_uid
        if self.provenance is not None:
            record["provenance"] = self.provenance
        if self.result is not None:
            record["generator_cycles"] = self.result.generator.cycles
            record["generator_energy_pj"] = self.result.generator.energy_pj
            record["total_cycles"] = self.result.total_cycles
            record["total_energy_pj"] = self.result.total_energy_pj
        if self.error is not None:
            record["error"] = str(self.error)
        return record


@dataclass(frozen=True)
class JobCompletion:
    """One job's terminal outcome, yielded by ``BatchHandle.as_completed()``.

    Iterating the completion unpacks as the documented ``(job, result,
    provenance)`` triple; ``index`` and ``error`` ride along as attributes for
    consumers that need the submission slot or the failure cause.
    """

    job: "SimulationJob"
    result: Optional["GanResult"]
    provenance: str
    index: int
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __iter__(self) -> Iterator[Any]:
        return iter((self.job, self.result, self.provenance))
