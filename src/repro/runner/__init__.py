"""Shared simulation execution layer: jobs, caching, streaming.

A :class:`SimulationRunner` deduplicates and cache-filters each submitted
batch; the :class:`BatchHandle` it returns runs the remaining jobs itself,
each in the thread that drives the handle.  See ``README.md`` in this
directory for the architecture and usage guide — including the streaming
API (``SimulationRunner.submit`` -> ``BatchHandle.as_completed`` plus the
typed ``RunnerEvent`` stream).
"""

from .cache import (
    CachePruneStats,
    CacheStats,
    DiskResultCache,
    InMemoryResultCache,
    LayerMemoStats,
    LayerMemoStore,
    ResultCache,
    configure_layer_memo,
    get_layer_memo,
)
from .events import (
    EVENT_KINDS,
    PROVENANCE_CACHE,
    PROVENANCE_DEDUPLICATED,
    PROVENANCE_EXECUTED,
    RECORD_SCHEMA_VERSION,
    TERMINAL_EVENT_KINDS,
    JobCompletion,
    RunnerEvent,
)
from .handle import BatchHandle
from .job import COMPARISON_PAIR, SimulationJob, execute_job
from .runner import (
    SimulationRunner,
    get_default_runner,
    resolve_accelerators,
    set_default_runner,
)

__all__ = [
    "COMPARISON_PAIR",
    "EVENT_KINDS",
    "PROVENANCE_CACHE",
    "PROVENANCE_DEDUPLICATED",
    "PROVENANCE_EXECUTED",
    "RECORD_SCHEMA_VERSION",
    "TERMINAL_EVENT_KINDS",
    "BatchHandle",
    "CachePruneStats",
    "CacheStats",
    "DiskResultCache",
    "InMemoryResultCache",
    "JobCompletion",
    "LayerMemoStats",
    "LayerMemoStore",
    "ResultCache",
    "RunnerEvent",
    "SimulationJob",
    "SimulationRunner",
    "configure_layer_memo",
    "execute_job",
    "get_default_runner",
    "get_layer_memo",
    "resolve_accelerators",
    "set_default_runner",
]
