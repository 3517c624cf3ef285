"""The unit of work of the simulation runner: one (model, accelerator) run.

A :class:`SimulationJob` fully describes one simulator invocation — which GAN
workload (a built model, a registry name or a family spec string such as
``"dcgan@32x32"``), which accelerator (any name in the
:mod:`repro.accelerators` registry), which
:class:`~repro.config.ArchitectureConfig` and
:class:`~repro.config.SimulationOptions` — and derives a deterministic
content-hash :attr:`~SimulationJob.cache_key` from the canonical serialization
of those inputs.  Jobs with equal cache keys are guaranteed to produce equal
:class:`~repro.analysis.results.GanResult` values, which is what lets the
runner deduplicate batches and share results through a content-addressed
cache across sweeps, experiments and processes.

Workload spec strings resolve through :mod:`repro.workloads.registry`, and
the resolved entry's ``workload_version`` is folded into the cache key
exactly like the accelerator's registered version: bumping a workload's
version invalidates its stale cached results even when the structural
fingerprint is unchanged.

:func:`execute_job` is the single entry point every backend uses to turn a
job into a result; it lives at module level so the process-pool backend can
pickle it.  The job carries only the accelerator *name* — the simulator is
built in the executing process through the registry, so pooled workers never
need to unpickle simulator instances.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..accelerators.registry import AcceleratorSpec, get_accelerator
from ..analysis.results import GanResult, LayerResult
from ..errors import AnalysisError
from ..analysis.serialization import (
    config_fingerprint,
    fingerprint_data,
    layer_fingerprint,
    options_fingerprint,
    workload_fingerprint,
)
from ..config import ArchitectureConfig, SimulationOptions
from ..nn.network import GANModel
from ..schedule import resolve_schedule, schedule_fingerprint
from ..telemetry import get_tracer
from ..workloads.registry import get_workload, resolve_workload, workload_version_for

#: The paper's two-point comparison, kept as the legacy default pair.  The
#: open accelerator set lives in :func:`repro.accelerators.accelerator_names`
#: (the old ``ACCELERATORS`` constant is gone: it documented "the names
#: SimulationJob accepts", which is now the whole registry).
COMPARISON_PAIR: Tuple[str, str] = ("eyeriss", "ganax")


@dataclass(frozen=True)
class SimulationJob:
    """One simulator invocation: a GAN workload on one accelerator.

    Attributes
    ----------
    model:
        The workload to simulate: a :class:`~repro.nn.network.GANModel`, a
        registered workload name, or a family spec string (``"dcgan@32x32"``)
        — names resolve through :mod:`repro.workloads.registry` at
        construction, so after ``__post_init__`` this is always a built
        model.  The model travels with the job (it is picklable), so jobs
        over ad-hoc models — not just registry workloads — run on every
        backend.
    accelerator:
        Any name registered in :mod:`repro.accelerators` (see
        :func:`~repro.accelerators.accelerator_names`); normalized to the
        registry's canonical spelling at construction.
    config:
        Architecture configuration shared by all simulators.
    options:
        Whole-model simulation options.
    workload_version:
        The workload registry version folded into :attr:`cache_key`.
        Resolved automatically (``""`` for ad-hoc models); pass explicitly
        only to pin a different cache generation.
    """

    model: Union[str, GANModel]
    accelerator: str
    config: ArchitectureConfig
    options: SimulationOptions
    workload_version: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Raises UnknownAcceleratorError (an AnalysisError) for unknown names.
        spec = get_accelerator(self.accelerator)
        object.__setattr__(self, "accelerator", spec.name)
        if isinstance(self.model, str):
            workload = resolve_workload(self.model)  # raises for unknown specs
            object.__setattr__(self, "model", get_workload(workload))
            if self.workload_version is None:
                object.__setattr__(self, "workload_version", workload.version)
        if self.workload_version is None:
            object.__setattr__(
                self, "workload_version", workload_version_for(self.model)
            )

    @property
    def model_name(self) -> str:
        return self.model.name

    @cached_property
    def cache_key(self) -> str:
        """Deterministic content hash identifying this job's result.

        Combines the accelerator name *and its registered model version* with
        the fingerprints of the workload structure (plus the workload's
        registry version), the architecture configuration and the simulation
        options, so any change to any simulation input — including a revised
        accelerator or workload that bumps its version — changes the key and
        stale cached results are never served.  Options are fingerprinted in
        the accelerator's *canonical* form
        (:meth:`~repro.accelerators.AcceleratorSpec.canonical_options`), so
        option values a model ignores or forces share one cache entry.  The
        schedule is keyed by the resolved spec's knob fingerprint (not just
        its name) so jobs differing only in schedule never share an entry,
        while a schedule-insensitive model that canonicalizes the schedule
        away keeps one entry across schedules.
        """
        spec = get_accelerator(self.accelerator)
        canonical = spec.canonical_options(self.options)
        return fingerprint_data(
            {
                "accelerator": {"name": spec.name, "version": spec.version},
                "workload": {
                    "fingerprint": workload_fingerprint(self.model),
                    "version": self.workload_version,
                },
                "config": config_fingerprint(self.config),
                "options": options_fingerprint(canonical),
                "schedule": {
                    "name": canonical.schedule,
                    "fingerprint": schedule_fingerprint(
                        resolve_schedule(canonical.schedule)
                    ),
                },
            }
        )

    @classmethod
    def for_accelerators(
        cls,
        model: Union[str, GANModel],
        accelerators: Sequence[str],
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Tuple["SimulationJob", ...]:
        """One job per accelerator name, sharing a single configuration."""
        config = config or ArchitectureConfig.paper_default()
        options = options or SimulationOptions()
        return tuple(
            cls(model=model, accelerator=name, config=config, options=options)
            for name in accelerators
        )

    @classmethod
    def comparison_pair(
        cls,
        model: Union[str, GANModel],
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
    ) -> Tuple["SimulationJob", "SimulationJob"]:
        """The (eyeriss, ganax) job pair behind one ComparisonResult."""
        eyeriss, ganax = cls.for_accelerators(model, COMPARISON_PAIR, config, options)
        return eyeriss, ganax


def _memoized_layer_fn(
    spec: AcceleratorSpec, simulator: object, job: SimulationJob
) -> Optional[Callable[[Sequence[object]], Tuple[LayerResult, ...]]]:
    """A batch layer evaluator backed by the process-global layer memo.

    Returns None — meaning "simulate normally, no memo" — when the memo is
    disabled or when the simulator is not eligible: only simulators that use
    the *unoverridden* :class:`GanSimulatorBase` network/GAN aggregation are
    guaranteed to route every layer through ``layer_fn``, so memoizing behind
    a custom aggregation could silently change results.

    Memo keys are :func:`layer_fingerprint` digests over (layer structure ×
    input shape × accelerator identity × config × canonical options) — the
    layer *name* is excluded, so distinct workloads sharing a layer shape
    share the entry; hits are re-labelled with the requesting binding's name.
    Misses are computed in one :meth:`simulate_layers` batch, so the
    simulator's batch entry point still sees every layer it has to estimate.
    """
    # Late imports: the accelerators package (and the cache module) are still
    # initializing when this module is first imported through them.
    from ..accelerators.base import GanSimulatorBase
    from .cache import get_layer_memo

    memo = get_layer_memo()
    if memo is None or not isinstance(simulator, GanSimulatorBase):
        return None
    cls = type(simulator)
    if (
        cls.simulate_gan is not GanSimulatorBase.simulate_gan
        or cls.simulate_network is not GanSimulatorBase.simulate_network
    ):
        return None
    canonical = spec.canonical_options(job.options)

    def layer_fn(bindings: Sequence[object]) -> Tuple[LayerResult, ...]:
        tracer = get_tracer()
        span = None
        if tracer is not None:
            # Nests under the simulate_layers span via the thread-local span
            # stack pushed by execute_job's context manager.
            span = tracer.begin("layer-memo", layers=len(bindings))
        keys = [
            layer_fingerprint(b, spec.name, spec.version, job.config, canonical)
            for b in bindings
        ]
        results: List[Optional[LayerResult]] = [None] * len(bindings)
        missing: List[int] = []
        for index, (binding, key) in enumerate(zip(bindings, keys)):
            hit = memo.get(key)
            if hit is not None:
                if hit.layer_name != binding.name:
                    hit = dataclasses.replace(hit, layer_name=binding.name)
                results[index] = hit
            else:
                missing.append(index)
        if missing:
            computed = simulator.simulate_layers([bindings[i] for i in missing])
            for index, result in zip(missing, computed):
                memo.put(keys[index], result)
                results[index] = result
        if span is not None:
            tracer.end(
                span, hits=len(bindings) - len(missing), misses=len(missing)
            )
        return tuple(results)

    return layer_fn


def _simulate(
    simulator: object,
    job: SimulationJob,
    layer_fn: Optional[Callable[[Sequence[object]], Tuple[LayerResult, ...]]],
) -> GanResult:
    if layer_fn is not None:
        return simulator.simulate_gan(job.model, layer_fn=layer_fn)
    return simulator.simulate_gan(job.model)


def execute_job(job: SimulationJob) -> GanResult:
    """Run one job to completion (used by every backend, picklable).

    When the process-global layer memo is enabled (see
    :func:`repro.runner.cache.get_layer_memo`), eligible simulators assemble
    their network totals from per-layer memo hits, so distinct workloads that
    share a layer shape share the work.

    Enforces the registry contract that a model reports its own registry
    name in its results: a delegating factory that forwards another entry's
    results unchanged would otherwise poison the cache under the wrong
    identity and crash the comparison assembly much later.
    """
    spec = get_accelerator(job.accelerator)
    simulator = spec.create(config=job.config, options=job.options)
    layer_fn = _memoized_layer_fn(spec, simulator, job)
    tracer = get_tracer()
    if tracer is not None:
        # Jobs may execute on a backend worker thread where the submitting
        # thread's span stack is invisible; the runner published cache_key ->
        # job-span-id at dispatch so the simulate span lands under its job.
        # The span() context manager also pushes this thread's span stack,
        # nesting the layer-memo lookup spans underneath.  (Pool workers are
        # separate *processes* with a fresh, disabled tracer — worker-side
        # spans are not recorded there; see the telemetry README.)
        with tracer.span(
            "simulate_layers",
            parent_id=tracer.parent_for(job.cache_key),
            model=job.model_name,
            accelerator=job.accelerator,
            memoized=layer_fn is not None,
        ):
            result = _simulate(simulator, job, layer_fn)
    else:
        result = _simulate(simulator, job, layer_fn)
    if result.accelerator != job.accelerator:
        raise AnalysisError(
            f"accelerator '{job.accelerator}' produced results labelled "
            f"'{result.accelerator}'; a registered model must report its "
            "registry name (set accelerator_name on the simulator class)"
        )
    return result
