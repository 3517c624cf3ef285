"""Shared infrastructure for the experiment modules.

Every experiment (one per paper table/figure) implements the same small
protocol: a ``run`` function that returns an :class:`ExperimentResult` holding
the computed data, the paper's reference data where available, and a rendered
plain-text report.  The registry in :mod:`repro.experiments.registry` exposes
them by experiment id (``"figure1"``, ``"table3"``, ...), which the CLI and
the benchmark harness use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Union

from ..analysis.results import ComparisonResult, MultiComparison
from ..analysis.sweep import compare_models
from ..config import ArchitectureConfig, SimulationOptions
from ..errors import ExperimentError, WorkloadError
from ..nn.network import GANModel
from ..runner import SimulationRunner, get_default_runner
from ..session import Session
from ..workloads.registry import all_workloads, get_workload, resolve_workload


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of regenerating one table or figure.

    Attributes
    ----------
    experiment_id:
        Short id matching the paper artefact (e.g. ``"figure8a"``).
    title:
        Human-readable title.
    data:
        The computed values in a JSON-friendly nested dict structure.
    paper_reference:
        The corresponding paper-reported values (same structure where
        possible); empty when the paper gives no directly comparable numbers.
    report:
        A rendered plain-text table for printing.
    """

    experiment_id: str
    title: str
    data: Dict[str, Any]
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    report: str = ""

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ExperimentError("experiment_id must be non-empty")
        if not self.title:
            raise ExperimentError("title must be non-empty")


class ExperimentContext:
    """Lazily-built shared state for experiments (models + comparisons).

    Building the six GAN models and running both simulators over all of them
    takes a couple of hundred milliseconds; experiments that need the same
    comparisons share them through a context so the full-suite runner and the
    benchmarks do the work once.

    Every simulation an experiment triggers goes through the context's
    :class:`~repro.runner.SimulationRunner` (the process-wide default one
    unless an explicit runner is passed), so the whole experiment suite —
    headline comparisons, figures, tables and ablation sweeps — shares one
    content-addressed result cache.
    """

    def __init__(
        self,
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
        models: Optional[Sequence[Union[str, GANModel]]] = None,
        runner: Optional[SimulationRunner] = None,
        accelerators: Optional[Sequence[str]] = None,
        progress: Optional[Callable[..., None]] = None,
    ) -> None:
        self._config = config or ArchitectureConfig.paper_default()
        self._options = options or SimulationOptions()
        # Workload names and family spec strings resolve through the
        # registry, so a context can scope the whole experiment suite to
        # e.g. ("dcgan@32x32", "synthetic@d8c256").
        self._models = (
            [get_workload(m) if isinstance(m, str) else m for m in models]
            if models is not None
            else None
        )
        self._runner = runner
        self._accelerators = tuple(accelerators) if accelerators is not None else None
        self._progress = progress
        self._session: Optional[Session] = None
        self._comparisons: Optional[Dict[str, ComparisonResult]] = None
        self._multi_comparisons: Optional[Dict[str, MultiComparison]] = None

    @property
    def config(self) -> ArchitectureConfig:
        return self._config

    @property
    def options(self) -> SimulationOptions:
        return self._options

    @property
    def runner(self) -> SimulationRunner:
        """The runner every experiment in this context submits through.

        When the context carries a ``progress`` hook it is subscribed to the
        runner's :class:`~repro.runner.RunnerEvent` stream on first access,
        so every simulation any experiment triggers — headline comparisons,
        figures, tables, ablation sweeps — reports live per-job progress.
        """
        if self._runner is None:
            self._runner = get_default_runner()
        if self._progress is not None:
            self._runner.subscribe(self._progress)
            self._progress = None  # subscribed once
        return self._runner

    @property
    def models(self) -> Sequence[GANModel]:
        if self._models is None:
            self._models = all_workloads()
        return self._models

    @property
    def session(self) -> Session:
        """N-way comparison facade sharing this context's config and runner.

        Built over the context's ``accelerators`` (the registry-default
        EYERISS/GANAX pair unless the context was constructed with an
        explicit list), so experiments that want more than the paper's
        two-point comparison route through the same runner and cache.
        """
        if self._session is None:
            self._session = Session(
                accelerators=self._accelerators,
                config=self._config,
                options=self._options,
                runner=self.runner,
            )
        return self._session

    @property
    def comparisons(self) -> Dict[str, ComparisonResult]:
        """GANAX-vs-EYERISS comparison per model, computed once.

        The two-way ``("eyeriss", "ganax")`` view the paper's figures
        consume; N-way studies use :attr:`multi_comparisons`.
        """
        if self._comparisons is None:
            self._comparisons = compare_models(
                self.models, self._config, self._options, runner=self.runner
            )
        return self._comparisons

    @property
    def multi_comparisons(self) -> Dict[str, MultiComparison]:
        """Per-model comparison across the context's accelerators."""
        if self._multi_comparisons is None:
            self._multi_comparisons = self.session.compare(self.models)
        return self._multi_comparisons

    def model(self, name: str) -> GANModel:
        """A context model by name (registry aliases and spec strings work)."""
        try:
            canonical = resolve_workload(name).name
        except WorkloadError:
            canonical = name
        for model in self.models:
            if model.name in (name, canonical):
                return model
        raise ExperimentError(f"no model named '{name}' in this context")


#: Signature every experiment module's ``run`` function follows.
ExperimentRunner = Callable[[Optional[ExperimentContext]], ExperimentResult]


def ensure_context(context: Optional[ExperimentContext]) -> ExperimentContext:
    """Return the given context or a fresh default one."""
    return context if context is not None else ExperimentContext()
