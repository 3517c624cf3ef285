"""The versioned JSONL wire protocol of the simulation service.

One **record** is one JSON object on one line (newline-delimited JSON), in
both directions.  Every record carries an explicit ``schema_version`` —
:data:`SCHEMA_VERSION`, shared with the runner's ``--jsonl`` record grammar
(:data:`repro.runner.RECORD_SCHEMA_VERSION`) — and both ends reject
mismatched versions with an explicit message instead of silently misparsing
(:func:`check_schema`).

Client -> server requests:

``hello``
    ``{"type": "hello", "schema_version": 1, "client": "<id>"}`` — the
    handshake; must be the first record on a connection.  The server answers
    ``welcome`` (or ``rejected`` with code ``schema-mismatch`` and closes).
``submit``
    ``{"type": "submit", "schema_version": 1, "request_id": "<id>",
    "jobs": [<job-spec>, ...]}`` — submit a batch.  The server answers
    ``accepted`` or ``rejected``, then pushes one ``event`` record per job as
    it terminates and a final ``done`` record.
``bye``
    ``{"type": "bye", "schema_version": 1}`` — orderly goodbye; the server
    answers ``goodbye`` and closes the connection.
``stats``
    ``{"type": "stats", "schema_version": 2}`` — ask the server for its
    telemetry snapshot.  The server answers a ``stats`` record carrying
    uptime, job/queue counters, cache accounting and the metrics-registry
    snapshot.  Added in schema version 2.

A **job spec** is the wire form of one
:class:`~repro.runner.SimulationJob` — the same (workload, accelerator,
config, options) tuple, with the workload as a registry name or family spec
string (``"dcgan@32x32"``) and config/options as *override* mappings applied
to the paper defaults::

    {"workload": "dcgan@64x64", "accelerator": "ganax",
     "config": {"num_pvs": 8}, "options": {"include_discriminator": false}}

Server -> client responses:

``welcome``
    ``{"type": "welcome", "schema_version": 1, "server": ..., "quota": N,
    "queue_limit": M}`` — handshake accepted; advertises admission knobs.
``accepted``
    ``{"type": "accepted", "schema_version": 1, "request_id": ...,
    "jobs": N}`` — the batch passed validation and admission control.
``rejected``
    ``{"type": "rejected", "schema_version": 1, "request_id": ...,
    "code": ..., "reason": ...}`` — the batch (or handshake) was refused.
    Codes: ``schema-mismatch``, ``bad-request``, ``quota``, ``queue-full``,
    ``shutting-down``.
``event``
    One terminal job event, pushed as the job terminates.  The payload *is*
    :meth:`RunnerEvent.describe() <repro.runner.RunnerEvent.describe>` — the
    exact ``--jsonl`` record grammar tests already pin — plus ``type``,
    ``request_id`` and the job's content-hash ``cache_key``.
``done``
    ``{"type": "done", "schema_version": 1, "request_id": ...,
    "counts": {...}}`` — every job of the request terminated;
    ``counts`` is :meth:`BatchHandle.counts`.
``goodbye`` / ``shutdown``
    Orderly connection close / server-initiated graceful shutdown notice.
``error``
    A malformed request that could not be attributed to a request_id.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import ArchitectureConfig, SimulationOptions
from ..errors import ProtocolError
from ..runner import RECORD_SCHEMA_VERSION, RunnerEvent, SimulationJob

#: The wire-protocol version; identical to the ``--jsonl`` record grammar
#: version because ``event`` records *are* that grammar.
SCHEMA_VERSION: int = RECORD_SCHEMA_VERSION

#: Oldest record version this side still accepts.  Version 2 only *added*
#: fields (``timestamp``/``job_uid`` on events, the ``stats`` exchange), so
#: version-1 records parse unchanged — old clients keep talking to new
#: servers and journals written by version-1 releases still replay.  Bump
#: this only when a version actually changes or removes a field.
MIN_COMPATIBLE_SCHEMA_VERSION: int = 1

#: Server identity string advertised in ``welcome`` records.
SERVER_ID = f"repro-service/{SCHEMA_VERSION}"

#: Machine-readable rejection codes carried by ``rejected`` records.
REJECT_SCHEMA_MISMATCH = "schema-mismatch"
REJECT_BAD_REQUEST = "bad-request"
REJECT_QUOTA = "quota"
REJECT_QUEUE_FULL = "queue-full"
REJECT_SHUTTING_DOWN = "shutting-down"

_JOB_SPEC_KEYS = frozenset({"workload", "accelerator", "config", "options"})


# ----------------------------------------------------------------------
# Record encoding / decoding
# ----------------------------------------------------------------------
def encode(record: Mapping[str, Any]) -> bytes:
    """Serialize one record as a JSONL line (UTF-8 bytes incl. newline)."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def decode(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one JSONL line into a record; malformed input raises loudly."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSONL record: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError(
            f"expected a JSON object per line, got {type(record).__name__}"
        )
    return record


def check_schema(record: Mapping[str, Any], source: str = "record") -> None:
    """Reject a record whose ``schema_version`` is absent or incompatible.

    Versions in ``[MIN_COMPATIBLE_SCHEMA_VERSION, SCHEMA_VERSION]`` are
    accepted — newer grammar versions have only added fields so far, so
    records from older peers (and journals written by older releases) parse
    unchanged.  Anything outside the range fails with a message naming both
    versions and the record's origin, so a stale side gets an actionable
    error instead of a silent misparse.
    """
    version = record.get("schema_version")
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or not MIN_COMPATIBLE_SCHEMA_VERSION <= version <= SCHEMA_VERSION
    ):
        raise ProtocolError(
            f"{source} has schema_version {version!r}, but this side speaks "
            f"schema_version {SCHEMA_VERSION} (accepting "
            f"{MIN_COMPATIBLE_SCHEMA_VERSION}..{SCHEMA_VERSION}); upgrade "
            "the older side"
        )


def stamp(record: Dict[str, Any]) -> Dict[str, Any]:
    """Add this side's ``schema_version`` to an outgoing record (in place)."""
    record.setdefault("schema_version", SCHEMA_VERSION)
    return record


# ----------------------------------------------------------------------
# Job specs: the wire form of SimulationJob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One wire-level job: the (workload, accelerator, config, options) tuple.

    ``workload`` is a registry name or family spec string — wire jobs cannot
    carry ad-hoc :class:`~repro.nn.network.GANModel` instances, which keeps
    the protocol JSON-pure and lets the server resolve workloads through its
    own registry.  ``config`` and ``options`` are override mappings applied
    to :meth:`ArchitectureConfig.paper_default` / default
    :class:`SimulationOptions`; validation happens when the server builds the
    :class:`~repro.runner.SimulationJob` (unknown fields raise).
    """

    workload: str
    accelerator: str
    config: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        """The JSON-friendly wire form (inverse of :func:`job_spec_from_wire`)."""
        record: Dict[str, Any] = {
            "workload": self.workload,
            "accelerator": self.accelerator,
        }
        if self.config:
            record["config"] = dict(self.config)
        if self.options:
            record["options"] = dict(self.options)
        return record

    def build(self) -> SimulationJob:
        """Materialize the :class:`SimulationJob` this spec describes.

        Raises :class:`~repro.errors.ReproError` subclasses for unknown
        workloads/accelerators and invalid config/option overrides — the
        server maps those onto ``rejected`` records with code
        ``bad-request``.  The same path as :func:`build_jobs` for one spec.
        """
        return build_jobs([self])[0]


def build_jobs(specs: Sequence[JobSpec]) -> List[SimulationJob]:
    """Materialize the :class:`SimulationJob` of each spec, in order.

    Each distinct ``(config, options)`` override pair is applied to the
    defaults once and its :class:`ArchitectureConfig` and
    :class:`SimulationOptions` objects are shared by every spec that names
    it.  Pairs are keyed by their canonical JSON, so override values that
    are lists or objects still key; a pair that is not JSON is built for its
    spec alone.  The first spec that fails raises, with the message building
    the specs one by one would give.
    """
    built: Dict[str, Tuple[ArchitectureConfig, SimulationOptions]] = {}
    jobs = []
    for spec in specs:
        try:
            key: Optional[str] = json.dumps([spec.config, spec.options], sort_keys=True)
        except (TypeError, ValueError):
            key = None  # never stored: the pair is built for this spec alone
        pair = built.get(key)
        if pair is None:
            base_config = ArchitectureConfig.paper_default().to_mapping()
            base_config.update(spec.config)
            base_options = SimulationOptions().to_mapping()
            base_options.update(spec.options)
            pair = (
                ArchitectureConfig.from_mapping(base_config),
                SimulationOptions.from_mapping(base_options),
            )
            if key is not None:
                built[key] = pair
        jobs.append(
            SimulationJob(
                model=spec.workload,
                accelerator=spec.accelerator,
                config=pair[0],
                options=pair[1],
            )
        )
    return jobs


def job_spec_from_wire(payload: Mapping[str, Any]) -> JobSpec:
    """Validate and parse one wire job-spec mapping into a :class:`JobSpec`."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"job spec must be an object, got {type(payload).__name__}"
        )
    unknown = set(payload) - _JOB_SPEC_KEYS
    if unknown:
        raise ProtocolError(f"unknown job-spec keys: {sorted(unknown)}")
    workload = payload.get("workload")
    accelerator = payload.get("accelerator")
    if not isinstance(workload, str) or not workload:
        raise ProtocolError("job spec requires a non-empty string 'workload'")
    if not isinstance(accelerator, str) or not accelerator:
        raise ProtocolError("job spec requires a non-empty string 'accelerator'")
    config = payload.get("config", {})
    options = payload.get("options", {})
    if not isinstance(config, Mapping):
        raise ProtocolError("job spec 'config' must be an object of overrides")
    if not isinstance(options, Mapping):
        raise ProtocolError("job spec 'options' must be an object of overrides")
    return JobSpec(
        workload=workload,
        accelerator=accelerator,
        config=dict(config),
        options=dict(options),
    )


def grid_specs(
    workloads: Sequence[str],
    accelerators: Sequence[str],
    config: Optional[Mapping[str, Any]] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> List[JobSpec]:
    """The (workload x accelerator) comparison grid as wire job specs.

    The client-side counterpart of
    :meth:`SimulationJob.for_accelerators` — what ``remote-compare`` submits.
    """
    return [
        JobSpec(
            workload=workload,
            accelerator=accelerator,
            config=dict(config or {}),
            options=dict(options or {}),
        )
        for workload in workloads
        for accelerator in accelerators
    ]


# ----------------------------------------------------------------------
# Request records (client -> server)
# ----------------------------------------------------------------------
def hello_record(client_id: str) -> Dict[str, Any]:
    return stamp({"type": "hello", "client": client_id})


def submit_record(
    job_specs: Sequence[JobSpec], request_id: Optional[str] = None
) -> Dict[str, Any]:
    return stamp(
        {
            "type": "submit",
            "request_id": request_id or uuid.uuid4().hex,
            "jobs": [spec.describe() for spec in job_specs],
        }
    )


def bye_record() -> Dict[str, Any]:
    return stamp({"type": "bye"})


def stats_request_record() -> Dict[str, Any]:
    """Ask the server for its telemetry snapshot (added in schema v2)."""
    return stamp({"type": "stats"})


def parse_submit(record: Mapping[str, Any]) -> Tuple[str, List[JobSpec]]:
    """Validate a ``submit`` record into its (request_id, job specs)."""
    request_id = record.get("request_id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("submit requires a non-empty string 'request_id'")
    jobs = record.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError("submit requires a non-empty 'jobs' array")
    return request_id, [job_spec_from_wire(payload) for payload in jobs]


# ----------------------------------------------------------------------
# Response records (server -> client)
# ----------------------------------------------------------------------
def welcome_record(quota: int, queue_limit: int) -> Dict[str, Any]:
    return stamp(
        {
            "type": "welcome",
            "server": SERVER_ID,
            "quota": quota,
            "queue_limit": queue_limit,
        }
    )


def accepted_record(request_id: str, jobs: int) -> Dict[str, Any]:
    return stamp({"type": "accepted", "request_id": request_id, "jobs": jobs})


def rejected_record(
    code: str, reason: str, request_id: Optional[str] = None
) -> Dict[str, Any]:
    record = {"type": "rejected", "code": code, "reason": reason}
    if request_id is not None:
        record["request_id"] = request_id
    return stamp(record)


def event_record(event: RunnerEvent, request_id: str) -> Dict[str, Any]:
    """One terminal job event as a wire record.

    The payload is exactly :meth:`RunnerEvent.describe` — the pinned
    ``--jsonl`` grammar (already carrying ``schema_version``) — plus the
    service envelope: ``type``, the owning ``request_id``, and the job's
    content-hash ``cache_key`` so clients and the journal can address
    results by content.
    """
    record = event.describe()
    record["type"] = "event"
    record["request_id"] = request_id
    record["cache_key"] = event.job.cache_key
    return record


def done_record(request_id: str, counts: Mapping[str, int]) -> Dict[str, Any]:
    return stamp({"type": "done", "request_id": request_id, "counts": dict(counts)})


def stats_record(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The server's telemetry snapshot as a wire record (schema v2)."""
    record: Dict[str, Any] = {"type": "stats"}
    record.update(payload)
    return stamp(record)


def goodbye_record() -> Dict[str, Any]:
    return stamp({"type": "goodbye"})


def shutdown_record() -> Dict[str, Any]:
    return stamp({"type": "shutdown", "reason": "server is shutting down"})


def error_record(reason: str) -> Dict[str, Any]:
    return stamp({"type": "error", "reason": reason})

