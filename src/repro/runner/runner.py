"""The simulation runner: streaming scheduling, deduplication and caching.

:class:`SimulationRunner` is the single execution seam every sweep, experiment
and CLI invocation submits through.  The core API is **submit in, stream
out**: :meth:`SimulationRunner.submit` accepts a batch of
:class:`~repro.runner.job.SimulationJob` objects and immediately returns a
:class:`~repro.runner.handle.BatchHandle`, after

1. **deduplicating** jobs by content hash, so identical (model, accelerator,
   config, options) combinations — common across experiments that share the
   paper-default configuration — execute at most once per batch,
2. answering what it can from the **content-addressed cache** (those jobs
   resolve on the handle instantly), and
3. dispatching only the remaining unique misses to the handle, which runs
   each one in whichever thread drives it, so results stream back per job
   instead of arriving with the slowest one.  Every executed (or cancelled)
   slot then passes through the runner's finish step, which caches and
   accounts it before the handle publishes it.

Consumers pull from the handle (``as_completed()`` / ``iter_results()`` /
``results()``) and can observe the typed
:class:`~repro.runner.events.RunnerEvent` life cycle of every job through
:meth:`SimulationRunner.subscribe` or a per-batch ``on_event`` callback.
:meth:`run_jobs` is the blocking wrapper over ``submit()``: results in
submission order.

The comparison entry points are registry-driven and N-way.  Every grid is
built in one place, :meth:`stream_accelerators_over_configs`, which yields
each (config, model) cell as its accelerator set lands;
:meth:`compare_accelerators` / :meth:`compare_accelerators_over_configs`
collect that stream back into submission order as
:class:`~repro.analysis.results.MultiComparison` values.  The two-way
EYERISS-vs-GANAX projection (``compare_model`` / ``compare_models``) lives
in :mod:`repro.analysis.sweep`.

A process-wide default runner (one shared in-memory cache) backs those
module-level helpers so casual library use benefits from caching without
any setup.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..accelerators.registry import get_accelerator
from ..analysis.results import GanResult, MultiComparison
from ..config import ArchitectureConfig, SimulationOptions
from ..errors import AnalysisError
from ..nn.network import GANModel
from ..telemetry import MetricsSubscriber, get_metrics, get_tracer
from .cache import CacheStats, InMemoryResultCache, ResultCache
from .events import PROVENANCE_CACHE, PROVENANCE_EXECUTED
from .handle import BatchHandle, EventListener, _Entry
from .job import COMPARISON_PAIR, SimulationJob

#: The ``backend`` label of the ``backend.jobs.*`` metrics: jobs run
#: serially, each in the thread that drives it.
_BACKEND_LABEL = "serial"


def resolve_accelerators(
    accelerators: Optional[Sequence[str]] = None, baseline: Optional[str] = None
) -> Tuple[Tuple[str, ...], str]:
    """Validate and normalize an accelerator list and its baseline.

    Names resolve through the registry (unknown ones raise
    :class:`~repro.errors.UnknownAcceleratorError`), order is preserved and
    duplicates collapse.  ``accelerators`` defaults to the paper's
    ``("eyeriss", "ganax")`` pair; ``baseline`` defaults to ``"eyeriss"``
    when present, else the first listed accelerator, and must be a member of
    the list.
    """
    requested = tuple(accelerators) if accelerators is not None else COMPARISON_PAIR
    names: List[str] = []
    for name in requested:
        canonical = get_accelerator(name).name
        if canonical not in names:
            names.append(canonical)
    if not names:
        raise AnalysisError("no accelerators provided")
    if baseline is None:
        resolved_baseline = "eyeriss" if "eyeriss" in names else names[0]
    else:
        resolved_baseline = get_accelerator(baseline).name
        if resolved_baseline not in names:
            raise AnalysisError(
                f"baseline '{resolved_baseline}' is not among the compared "
                f"accelerators: {', '.join(names)}"
            )
    return tuple(names), resolved_baseline


class SimulationRunner:
    """Execute simulation jobs with deduplication and content-hash caching.

    Jobs run serially, each in the thread that drives its batch handle (a
    service drives batches from several threads at once).

    Parameters
    ----------
    cache:
        Result cache; ``None`` (the default) means a fresh
        :class:`InMemoryResultCache`.  To run without any cache, pass
        ``use_cache=False`` instead.
    use_cache:
        When False the runner never consults or fills a cache and ignores
        ``cache``; every job in a batch still deduplicates against
        identical batch-mates.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
    ) -> None:
        # `is not None`, not truthiness: an empty cache has len() == 0
        self._cache: Optional[ResultCache] = (
            (cache if cache is not None else InMemoryResultCache())
            if use_cache
            else None
        )
        self._stats = CacheStats()
        # Completions land on whichever thread drives a job (a service runs
        # several); the cache and the stats counters are shared by them all.
        self._lock = threading.Lock()
        # Job outcome counters and latency histograms come for free on every
        # runner; the subscriber no-ops when metrics are disabled.
        self._listeners: List[EventListener] = [MetricsSubscriber()]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def stats(self) -> CacheStats:
        """Cache accounting for every batch this runner has executed."""
        return self._stats

    def close(self) -> None:
        """Release held resources: none, as jobs run in consumer threads.

        Kept so ``with SimulationRunner() as runner:`` and explicit
        ``close()`` calls stay valid.
        """

    def __enter__(self) -> "SimulationRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def subscribe(self, listener: EventListener) -> Callable[[], None]:
        """Register a callback for every :class:`RunnerEvent` this runner emits.

        The listener fires for every batch submitted *after* this call (the
        snapshot is taken at ``submit()`` time) and must not raise — listener
        exceptions are suppressed to protect the batch.  Returns an
        unsubscribe callable.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    # ------------------------------------------------------------------
    # Core streaming scheduler
    # ------------------------------------------------------------------
    def submit(
        self,
        jobs: Sequence[SimulationJob],
        on_event: Optional[EventListener] = None,
    ) -> BatchHandle:
        """Submit a batch and return a :class:`BatchHandle` immediately.

        Per job, in submission order: identical batch-mates (equal
        ``cache_key``) are tied to the first occurrence (``deduped``), cache
        hits resolve on the handle instantly (``cache-hit``), and the
        remaining unique misses are dispatched to the handle, which runs each
        one when a consumer drives it — its result lands in the cache and on
        the handle as the job finishes, in whichever thread drives it.

        ``on_event`` observes just this batch; listeners registered through
        :meth:`subscribe` observe every batch.
        """
        jobs = list(jobs)
        listeners = tuple(self._listeners)
        if on_event is not None:
            listeners += (on_event,)
        handle = BatchHandle(jobs, listeners, self._finish_job)
        registry = get_metrics()
        tracer = get_tracer()
        if tracer is not None and jobs:
            # One batch span parenting one job span per entry; the handle
            # closes each job span at its terminal event and the batch span
            # when the last entry terminates (see BatchHandle._resolve).
            handle._tracer = tracer
            handle._batch_span = tracer.begin("batch", jobs=len(jobs))
            for entry in handle._entries:
                entry.span = tracer.begin(
                    "job",
                    parent_id=handle._batch_span.span_id,
                    model=entry.job.model_name,
                    accelerator=entry.job.accelerator,
                    index=entry.index,
                )
        # Every job announces itself before anything resolves, so listeners
        # (e.g. the CLI's progress line) see the true batch size up front
        # even when cache hits would otherwise terminate instantly.
        for entry in handle._entries:
            handle._emit_lifecycle("scheduled", entry)
        primaries: Dict[str, _Entry] = {}
        pending: List[_Entry] = []
        for entry in handle._entries:
            key = entry.job.cache_key
            primary = primaries.get(key)
            if primary is not None:
                with self._lock:
                    self._stats.deduplicated += 1
                if registry is not None:
                    registry.counter("runner.cache.deduplicated").inc()
                handle._emit_lifecycle("deduped", entry)
                handle._register_duplicate(entry, primary)
                continue
            primaries[key] = entry
            cached = None
            if self._cache is not None:
                with self._lock:
                    cached = self._cache.get(key)
            if cached is not None:
                with self._lock:
                    self._stats.hits += 1
                if registry is not None:
                    registry.counter("runner.cache.hits").inc()
                handle._resolve(
                    entry, "cache-hit", result=cached, provenance=PROVENANCE_CACHE
                )
                continue
            with self._lock:
                self._stats.misses += 1
            if registry is not None:
                registry.counter("runner.cache.misses").inc()
            pending.append(entry)

        if pending:
            if tracer is not None:
                # A consumer thread may drive jobs another thread submitted,
                # where the submit-time span stack is invisible; publishing
                # cache_key -> job-span-id lets execute_job() parent its
                # simulate spans onto the right job regardless of thread.
                for entry in pending:
                    if entry.span is not None:
                        tracer.register_job(entry.job.cache_key, entry.span.span_id)
            if registry is not None:
                # Nothing runs yet: a slot counts as in flight from here
                # until the finish step settles it.
                registry.counter(
                    "backend.jobs.dispatched", backend=_BACKEND_LABEL
                ).inc(len(pending))
                handle._inflight = registry.gauge(
                    "backend.jobs.inflight", backend=_BACKEND_LABEL
                )
                handle._inflight.inc(len(pending))
        return handle

    def _finish_job(
        self,
        handle: BatchHandle,
        entry: _Entry,
        kind: str,
        result: Optional[GanResult],
        error: Optional[BaseException],
    ) -> None:
        """Settle one dispatched slot: account, cache, then publish it.

        ``kind`` is ``completed``, ``failed`` or ``cancelled``.  Everything
        here happens before :meth:`BatchHandle._resolve` wakes a waiter, so
        a returned result is always cached and accounted already.
        """
        if handle._inflight is not None:
            handle._inflight.dec()
        tracer = handle._tracer
        if tracer is not None:
            tracer.unregister_job(entry.job.cache_key)
        if kind != "completed":
            handle._resolve(
                entry,
                kind,
                error=error,
                provenance=PROVENANCE_EXECUTED if kind == "failed" else None,
            )
            return
        assert result is not None
        stored = False
        with self._lock:
            if self._cache is not None:
                try:
                    self._cache.put(entry.job.cache_key, result)
                    self._stats.stores += 1
                    stored = True
                except Exception:
                    pass  # a failed store must not lose the computed result
        if stored:
            registry = get_metrics()
            if registry is not None:
                registry.counter("runner.cache.stores").inc()
        handle._resolve(
            entry, "completed", result=result, provenance=PROVENANCE_EXECUTED
        )

    def run_jobs(self, jobs: Sequence[SimulationJob]) -> List[GanResult]:
        """Run a batch of jobs, returning results in submission order.

        The blocking wrapper over :meth:`submit`: identical jobs (equal
        ``cache_key``) execute at most once and duplicate submissions share
        the single result object, exactly as the handle's ``results()``
        delivers them.
        """
        return self.submit(jobs).results()

    def run_job(self, job: SimulationJob) -> GanResult:
        """Run a single job (through the cache)."""
        return self.run_jobs([job])[0]

    # ------------------------------------------------------------------
    # Streaming comparison consumers
    # ------------------------------------------------------------------
    def stream_accelerators(
        self,
        models: Sequence[GANModel],
        accelerators: Optional[Sequence[str]] = None,
        baseline: Optional[str] = None,
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Iterator[Tuple[str, MultiComparison]]:
        """Yield ``(model_name, MultiComparison)`` as each model's grid lands.

        :meth:`compare_accelerators` is this stream collected: the whole
        (model x accelerator) grid is submitted at once, and a model is
        yielded as soon as *its* jobs have all completed — cache-warm models
        arrive immediately, even while others still simulate.  Abandoning
        the iterator cancels the batch's unstarted jobs.
        """
        for _label, model_name, multi in self.stream_accelerators_over_configs(
            models,
            {"default": config or ArchitectureConfig.paper_default()},
            accelerators,
            baseline,
            options,
        ):
            yield model_name, multi

    def stream_accelerators_over_configs(
        self,
        models: Sequence[GANModel],
        labelled_configs: Mapping[str, ArchitectureConfig],
        accelerators: Optional[Sequence[str]] = None,
        baseline: Optional[str] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Iterator[Tuple[str, str, MultiComparison]]:
        """Yield ``(config_label, model_name, MultiComparison)`` as groups land.

        The one place comparison jobs are built (every grid entry point
        collects this stream): one submission covers the whole
        (config x model x accelerator) grid, and each (config, model) cell
        is yielded the moment its accelerator set completes — in completion
        order: cache-warm cells first (they resolve at submission), then
        submission order when one consumer drains the stream.  Closing the
        iterator early cancels every job that has not started.
        """
        if not models:
            raise AnalysisError("no models provided")
        if not labelled_configs:
            raise AnalysisError("no configurations provided")
        names, resolved_baseline = resolve_accelerators(accelerators, baseline)
        jobs: List[SimulationJob] = []
        # job index -> (group key, model occurrence); a group only accepts
        # completions from its *canonical* occurrence (the last model listed
        # under that name, as a per-name dict keeps the last write), so
        # a name shared by distinct models never mixes results in one group
        # while equivalent spellings still collapse to a single yield.
        slots: List[Tuple[Tuple[str, str], int]] = []
        canonical: Dict[Tuple[str, str], int] = {}
        for label, config in labelled_configs.items():
            for occurrence, model in enumerate(models):
                key = (label, model.name)
                canonical[key] = occurrence
                for job in SimulationJob.for_accelerators(
                    model, names, config, options
                ):
                    jobs.append(job)
                    slots.append((key, occurrence))
        handle = self.submit(jobs)
        groups: Dict[Tuple[str, str], Dict[str, GanResult]] = {}
        complete: set = set()
        try:
            for completion in handle.as_completed():
                key, occurrence = slots[completion.index]
                if key in complete or canonical[key] != occurrence:
                    continue
                group = groups.setdefault(key, {})
                group[completion.job.accelerator] = completion.result
                if len(group) == len(names):
                    complete.add(key)
                    del groups[key]
                    label, model_name = key
                    yield label, model_name, MultiComparison(
                        model_name=model_name,
                        baseline=resolved_baseline,
                        results={name: group[name] for name in names},
                    )
        finally:
            handle.cancel()

    # ------------------------------------------------------------------
    # N-way comparison entry points (registry-driven)
    # ------------------------------------------------------------------
    def compare_accelerators(
        self,
        models: Sequence[GANModel],
        accelerators: Optional[Sequence[str]] = None,
        baseline: Optional[str] = None,
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Dict[str, MultiComparison]:
        """Run every GAN on every named accelerator; name -> MultiComparison.

        ``accelerators`` defaults to the paper's ``("eyeriss", "ganax")``
        pair and ``baseline`` to ``"eyeriss"`` when present (the first listed
        accelerator otherwise).  All ``len(accelerators) * len(models)`` jobs
        dispatch as one batch.
        """
        grid = self.compare_accelerators_over_configs(
            models,
            {"default": config or ArchitectureConfig.paper_default()},
            accelerators,
            baseline,
            options,
        )
        return grid["default"]

    def compare_accelerators_over_configs(
        self,
        models: Sequence[GANModel],
        labelled_configs: Mapping[str, ArchitectureConfig],
        accelerators: Optional[Sequence[str]] = None,
        baseline: Optional[str] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Dict[str, Dict[str, MultiComparison]]:
        """Run a (config x model x accelerator) grid as one deduplicated batch.

        :meth:`stream_accelerators_over_configs` collected: the stream
        yields cells in completion order (cache-warm cells first), so they
        are put back in the iteration order of ``labelled_configs``,
        ``models`` and ``accelerators``.  Returns
        ``{config_label: {model_name: MultiComparison}}``.
        """
        cells = {
            (label, model_name): multi
            for label, model_name, multi in self.stream_accelerators_over_configs(
                models, labelled_configs, accelerators, baseline, options
            )
        }
        return {
            label: {model.name: cells[label, model.name] for model in models}
            for label in labelled_configs
        }


# ----------------------------------------------------------------------
# Process-wide default runner
# ----------------------------------------------------------------------
_default_runner: Optional[SimulationRunner] = None


def get_default_runner() -> SimulationRunner:
    """The process-wide runner (one shared in-memory cache).

    Created lazily on first use; the module-level ``compare_model`` /
    ``compare_models`` helpers in :mod:`repro.analysis.sweep` and any
    :class:`~repro.experiments.base.ExperimentContext` built without an
    explicit runner all share it, so repeated paper-default simulations are
    computed once per process.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = SimulationRunner()
    return _default_runner


def set_default_runner(runner: Optional[SimulationRunner]) -> Optional[SimulationRunner]:
    """Replace the process-wide runner; returns the previous one (if any).

    Pass None to reset; the next :func:`get_default_runner` call creates a
    fresh runner.
    """
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous
