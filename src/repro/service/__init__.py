"""Simulation-as-a-service: a multi-client streaming server over the runner.

This package turns the in-process :class:`~repro.runner.SimulationRunner`
into a long-running TCP service speaking a versioned JSONL protocol, so a
fleet of workers (or several interactive sweeps) can share one runner, one
content-addressed result cache, and one durable journal:

* :mod:`repro.service.protocol` — the wire grammar: versioned JSONL
  request/response records, :class:`JobSpec` (the wire form of a
  :class:`~repro.runner.SimulationJob`), schema-version checking.
* :mod:`repro.service.server` — :class:`SimulationServer`: asyncio TCP
  endpoint, admission control (per-client quota + round-robin fairness),
  cross-client dedup, durable journaling with ``--resume`` replay, graceful
  draining shutdown.
* :mod:`repro.service.client` — :class:`Client`: synchronous streaming
  client with connect retry/backoff.
* :mod:`repro.service.journal` — :class:`EventJournal`: JSONL journal of
  terminal events, written in groups with one fsync each before they are
  forwarded, carrying each result's payload once per key per journal
  generation, with atomic compaction (threshold: the larger of
  ``rotate_bytes`` and twice the last compacted size) and crash-resume
  replay.
* :mod:`repro.service.admission` — :class:`AdmissionController` and
  :class:`RoundRobinQueue`.

Quick start::

    from repro.service import Client, SimulationServer, grid_specs

    with SimulationServer(port=0) as server:          # serves on a thread
        with Client(port=server.port) as client:
            records = client.compare(["dcgan"], ["eyeriss", "ganax"])

See ``src/repro/service/README.md`` for the protocol specification and the
CLI verbs (``repro-experiments serve`` / ``remote-compare``).
"""

from .admission import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_QUOTA,
    AdmissionController,
    RoundRobinQueue,
)
from .client import Client
from .journal import DEFAULT_ROTATE_BYTES, EventJournal, journal_record
from .protocol import SCHEMA_VERSION, JobSpec, grid_specs
from .server import DEFAULT_MAX_ACTIVE_REQUESTS, DEFAULT_PORT, SimulationServer

__all__ = [
    "AdmissionController",
    "Client",
    "DEFAULT_MAX_ACTIVE_REQUESTS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_QUOTA",
    "DEFAULT_ROTATE_BYTES",
    "EventJournal",
    "JobSpec",
    "RoundRobinQueue",
    "SCHEMA_VERSION",
    "SimulationServer",
    "grid_specs",
    "journal_record",
]
