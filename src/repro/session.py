"""The top-level N-way comparison facade: :class:`Session`.

A session pins down *which* accelerators are being compared (any entries of
the :mod:`repro.accelerators` registry), *which baseline* the ratios are
taken against, and *how* the simulations execute (a
:class:`~repro.runner.SimulationRunner` with its cache), and then
answers comparison questions about any set of GAN workloads::

    from repro import Session
    from repro.accelerators import accelerator_names

    session = Session(accelerators=accelerator_names())
    comparisons = session.compare(["DCGAN", "MAGAN"])
    print(comparisons["DCGAN"].generator_speedups())
    # {'eyeriss': 1.0, 'ganax': 4.556, 'ganax-noskip': 0.9999..., 'ideal': 5.121}

Models may be given as registry names (``"DCGAN"``), family spec strings
(``"dcgan@32x32"``, ``"synthetic@d8c256"`` — see
:mod:`repro.workloads.families`) or :class:`~repro.nn.network.GANModel`
instances; ``compare()`` with no arguments covers every registered workload.
Every simulation in a session submits through one runner batch, so the
whole (model x accelerator) grid deduplicates and results are shared
through the content-addressed cache.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .accelerators.registry import get_accelerator
from .analysis.results import MultiComparison
from .analysis.sweep import build_labelled_configs
from .config import ArchitectureConfig, SimulationOptions
from .errors import AnalysisError
from .nn.network import GANModel
from .runner import (
    SimulationJob,
    SimulationRunner,
    get_default_runner,
    resolve_accelerators,
)
from .workloads.registry import all_workloads, expand_workload_family, get_workload

#: A workload, by registry name / family spec string or as a built model.
ModelLike = Union[str, GANModel]


class Session:
    """An N-way accelerator comparison session.

    Parameters
    ----------
    accelerators:
        Registered accelerator names to compare (order is preserved,
        duplicates collapse).  Defaults to the paper's
        ``("eyeriss", "ganax")`` pair; pass
        :func:`~repro.accelerators.accelerator_names` to compare everything
        registered.  Unknown names raise
        :class:`~repro.errors.UnknownAcceleratorError`.
    baseline:
        The accelerator every speedup / energy-reduction ratio is taken
        against; defaults to ``"eyeriss"`` when compared, else the first
        listed accelerator.
    config / options:
        Shared :class:`ArchitectureConfig` and :class:`SimulationOptions`
        for every run (paper defaults when omitted).
    runner:
        The :class:`~repro.runner.SimulationRunner` simulations submit
        through; defaults to the process-wide cached runner.
    """

    def __init__(
        self,
        accelerators: Optional[Sequence[str]] = None,
        baseline: Optional[str] = None,
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
        runner: Optional[SimulationRunner] = None,
    ) -> None:
        names, resolved_baseline = resolve_accelerators(accelerators, baseline)
        self._accelerators = names
        self._baseline = resolved_baseline
        self._config = config or ArchitectureConfig.paper_default()
        self._options = options or SimulationOptions()
        self._runner = runner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accelerators(self) -> tuple:
        """Compared accelerator names, in comparison order."""
        return self._accelerators

    @property
    def baseline(self) -> str:
        return self._baseline

    @property
    def config(self) -> ArchitectureConfig:
        return self._config

    @property
    def options(self) -> SimulationOptions:
        return self._options

    @property
    def runner(self) -> SimulationRunner:
        if self._runner is None:
            self._runner = get_default_runner()
        return self._runner

    def describe(self) -> List[Dict[str, str]]:
        """Registry metadata for every compared accelerator."""
        return [get_accelerator(name).describe() for name in self._accelerators]

    # ------------------------------------------------------------------
    # Comparison entry points
    # ------------------------------------------------------------------
    def compare(
        self, models: Optional[Union[ModelLike, Iterable[ModelLike]]] = None
    ) -> Dict[str, MultiComparison]:
        """Compare workloads across the session's accelerators.

        Accepts a single model (name, family spec string or instance), an
        iterable of them, or nothing for all registered workloads.  Returns
        ``{model_name: MultiComparison}`` in submission order; the whole
        (model x accelerator) grid dispatches as one runner batch.
        """
        return self._compare_resolved(self._resolve_models(models))

    def compare_model(self, model: ModelLike) -> MultiComparison:
        """Compare one workload across the session's accelerators."""
        resolved = self._resolve_models(model)
        return self._compare_resolved(resolved)[resolved[0].name]

    def submit(
        self, models: Optional[Union[ModelLike, Iterable[ModelLike]]] = None
    ):
        """Submit the comparison grid and return its :class:`BatchHandle`.

        The non-blocking entry point: the whole (model x accelerator) grid
        joins one runner submission and the returned
        :class:`~repro.runner.BatchHandle` streams per-job completions
        (``as_completed()``) or blocks for everything (``results()``).
        Most consumers want :meth:`stream_compare`, which reassembles the
        per-model :class:`MultiComparison` values as they land.
        """
        resolved = self._resolve_models(models)
        jobs = [
            job
            for model in resolved
            for job in SimulationJob.for_accelerators(
                model, self._accelerators, self._config, self._options
            )
        ]
        return self.runner.submit(jobs)

    def stream_compare(
        self, models: Optional[Union[ModelLike, Iterable[ModelLike]]] = None
    ) -> Iterator[Tuple[str, MultiComparison]]:
        """Yield ``(model_name, MultiComparison)`` as each model completes.

        :meth:`compare` is this stream collected: all jobs submit at
        once, and each model is yielded the moment its accelerator set has
        finished — cache-warm models arrive immediately while cold ones
        still simulate, so progress UIs and services can react per model
        instead of waiting for the slowest.  Closing the iterator early
        cancels every job that has not started.
        """
        yield from self.runner.stream_accelerators(
            self._resolve_models(models),
            self._accelerators,
            self._baseline,
            self._config,
            self._options,
        )

    def _compare_resolved(
        self, resolved: Sequence[GANModel]
    ) -> Dict[str, MultiComparison]:
        """The shared comparison path: models are already built instances."""
        return self.runner.compare_accelerators(
            resolved,
            self._accelerators,
            self._baseline,
            self._config,
            self._options,
        )

    def run(self, model: ModelLike, accelerator: str):
        """One workload on one accelerator (through the cached runner)."""
        resolved = self._resolve_models(model)[0]
        job = SimulationJob(
            model=resolved,
            accelerator=accelerator,
            config=self._config,
            options=self._options,
        )
        return self.runner.run_job(job)

    def sweep(
        self,
        parameter: str,
        values: Sequence[Any],
        models: Optional[Union[ModelLike, Iterable[ModelLike]]] = None,
        label_format: str = "{parameter}={value}",
    ) -> Dict[str, Dict[str, MultiComparison]]:
        """Sweep one configuration field across the session's accelerators.

        Returns ``{label: {model_name: MultiComparison}}`` — the N-way
        counterpart of :class:`~repro.analysis.sweep.ParameterSweep`; the
        whole (config x model x accelerator) grid joins one runner batch.
        """
        return self.runner.compare_accelerators_over_configs(
            self._resolve_models(models),
            build_labelled_configs(parameter, values, self._config, label_format),
            self._accelerators,
            self._baseline,
            self._options,
        )

    def explore(
        self,
        accelerator: Optional[str] = None,
        models: Optional[Union[ModelLike, Iterable[ModelLike]]] = None,
        fields: Optional[Sequence[str]] = None,
        overrides: Optional[Dict[str, Sequence[Any]]] = None,
        strategy: Optional[Any] = None,
        budget: Optional[int] = None,
        space: Optional[Any] = None,
        objectives: Optional[Sequence[Any]] = None,
        workload_family: Optional[str] = None,
        workload_variants: Optional[Sequence[str]] = None,
    ):
        """Design-space exploration of one session accelerator vs the baseline.

        ``accelerator`` defaults to the first compared accelerator that is
        not the baseline.  The space is materialized from that accelerator's
        ``config_space()`` over ``fields``/``overrides`` unless an explicit
        :class:`~repro.dse.DesignSpace` is passed, and every candidate
        evaluation submits through this session's runner (one job batch per
        strategy step, shared cache).

        The evaluated workload set is part of the searched space: pass
        ``models`` explicitly (names, family spec strings or instances), or
        target a whole **workload family** with ``workload_family`` — every
        candidate configuration is then scored across that family's variants
        (``workload_variants``, or the family's declared defaults), so the
        frontier optimizes over the family rather than the paper's fixed
        six.  Returns a :class:`~repro.dse.ExplorationResult`; see
        :mod:`repro.dse` for the strategies and the frontier API.
        """
        from .dse.engine import DesignSpaceExplorer

        if workload_family is not None:
            if models is not None:
                raise AnalysisError(
                    "pass either models or workload_family, not both"
                )
            models = expand_workload_family(workload_family, workload_variants)
        elif workload_variants is not None:
            raise AnalysisError("workload_variants requires workload_family")
        if accelerator is None:
            accelerator = next(
                (n for n in self._accelerators if n != self._baseline),
                self._accelerators[0],
            )
        explorer = DesignSpaceExplorer(
            accelerator=accelerator,
            baseline=self._baseline,
            models=self._resolve_models(models) if models is not None else None,
            base_config=self._config,
            options=self._options,
            objectives=objectives,
            runner=self.runner,
        )
        if space is None:
            space = explorer.space(fields=fields, overrides=overrides)
        return explorer.explore(space=space, strategy=strategy, budget=budget)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_models(
        models: Optional[Union[ModelLike, Iterable[ModelLike]]]
    ) -> List[GANModel]:
        if models is None:
            return list(all_workloads())
        if isinstance(models, (str, GANModel)):
            models = [models]
        resolved = [
            get_workload(model) if isinstance(model, str) else model
            for model in models
        ]
        if not resolved:
            raise AnalysisError("no models provided")
        return resolved
