"""Parameter-sweep utilities for ablation studies.

The ablation benchmarks sweep architectural parameters (DRAM bandwidth, PE
array shape, zero-gating energy, MIMD dispatch overhead) and dataflow choices
(output-row reorganization on/off, filter-row reorganization on/off) and ask
how the headline metrics move.  :class:`ParameterSweep` runs a comparison for
every parameter value and collects the per-model speedup / energy-reduction
series in a structure the report renderer understands.

All simulation work routes through a :class:`~repro.runner.SimulationRunner`:
a sweep submits its entire (config x model x accelerator) grid as **one
batch**, so identical jobs deduplicate and cached results are reused across
sweeps and experiments.  :meth:`ParameterSweep.iter_configs` streams points
as their configurations complete; :meth:`ParameterSweep.run` and
:meth:`ParameterSweep.run_configs` are that stream collected in label order.

:func:`compare_accelerators` runs any registered accelerators N-way;
:func:`compare_model` / :func:`compare_models` are its two-way projection,
the paper's EYERISS-vs-GANAX pair as
:class:`~repro.analysis.results.ComparisonResult` values.  All three use the
process-wide default runner unless one is passed as ``runner=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from ..config import ArchitectureConfig, SimulationOptions
from ..errors import AnalysisError
from ..nn.network import GANModel
from ..runner import COMPARISON_PAIR, SimulationRunner, get_default_runner
from .metrics import geometric_mean
from .results import ComparisonResult, MultiComparison


def build_labelled_configs(
    parameter: str,
    values: Sequence[Any],
    base_config: ArchitectureConfig,
    label_format: str = "{parameter}={value}",
) -> Dict[str, ArchitectureConfig]:
    """Label -> config for a sweep over one configuration field.

    Shared by :meth:`ParameterSweep.run` and :meth:`repro.Session.sweep`;
    rejects empty value lists and label formats that collapse distinct
    values onto one label.
    """
    if not values:
        raise AnalysisError("a sweep needs at least one parameter value")
    labelled_configs = {
        label_format.format(parameter=parameter, value=value):
            base_config.with_updates(**{parameter: value})
        for value in values
    }
    if len(labelled_configs) != len(values):
        raise AnalysisError(
            f"sweep over '{parameter}' produced duplicate labels; "
            "use a label_format that distinguishes the values"
        )
    return labelled_configs


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    label: str
    config: ArchitectureConfig
    speedups: Dict[str, float]
    energy_reductions: Dict[str, float]

    @property
    def geomean_speedup(self) -> float:
        return geometric_mean(list(self.speedups.values()))

    @property
    def geomean_energy_reduction(self) -> float:
        return geometric_mean(list(self.energy_reductions.values()))

    @classmethod
    def from_comparisons(
        cls,
        label: str,
        config: ArchitectureConfig,
        comparisons: Mapping[str, ComparisonResult],
    ) -> "SweepPoint":
        """Build a point from one config's per-model comparison results."""
        return cls(
            label=label,
            config=config,
            speedups={
                name: c.generator_speedup for name, c in comparisons.items()
            },
            energy_reductions={
                name: c.generator_energy_reduction
                for name, c in comparisons.items()
            },
        )


def compare_model(
    model: GANModel,
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> ComparisonResult:
    """Run one GAN on both accelerators with a shared configuration."""
    return compare_models([model], config, options, runner)[model.name]


def compare_models(
    models: Sequence[GANModel],
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> Dict[str, ComparisonResult]:
    """Run every GAN on both accelerators; returns name -> comparison.

    The ``("eyeriss", "ganax")`` case of :func:`compare_accelerators`, all
    ``2 * len(models)`` jobs in one deduplicated batch.
    """
    comparisons = compare_accelerators(
        models, COMPARISON_PAIR, "eyeriss", config, options, runner
    )
    return {name: multi.as_comparison() for name, multi in comparisons.items()}


def compare_accelerators(
    models: Sequence[GANModel],
    accelerators: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    runner: Optional[SimulationRunner] = None,
) -> Dict[str, MultiComparison]:
    """Run every GAN on every named registered accelerator (N-way).

    The N-way counterpart of :func:`compare_models`: returns
    ``{model_name: MultiComparison}`` against the declared ``baseline``
    (``"eyeriss"`` when present).  :class:`repro.Session` is the stateful
    facade over this entry point.
    """
    if not models:
        raise AnalysisError("no models provided")
    runner = runner or get_default_runner()
    return runner.compare_accelerators(models, accelerators, baseline, config, options)


class ParameterSweep:
    """Sweep one architectural parameter over a set of values."""

    def __init__(
        self,
        models: Sequence[GANModel],
        base_config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
        runner: Optional[SimulationRunner] = None,
    ) -> None:
        if not models:
            raise AnalysisError("a sweep needs at least one model")
        self._models = list(models)
        self._base_config = base_config or ArchitectureConfig.paper_default()
        self._options = options
        self._runner = runner

    def run(
        self,
        parameter: str,
        values: Sequence[Any],
        label_format: str = "{parameter}={value}",
    ) -> List[SweepPoint]:
        """Run the sweep over ``values`` of the named configuration field."""
        return self.run_configs(
            build_labelled_configs(parameter, values, self._base_config, label_format)
        )

    def run_configs(
        self, labelled_configs: Mapping[str, ArchitectureConfig]
    ) -> List[SweepPoint]:
        """Run the sweep over explicit, pre-built configurations.

        :meth:`iter_configs` collected: its points arrive in completion
        order (cache-warm ones first) and are returned in label order.
        """
        points = {point.label: point for point in self.iter_configs(labelled_configs)}
        return [points[label] for label in labelled_configs]

    def iter_points(
        self,
        parameter: str,
        values: Sequence[Any],
        label_format: str = "{parameter}={value}",
    ) -> Iterator[SweepPoint]:
        """Yield each :class:`SweepPoint` as soon as its config completes.

        :meth:`run` is this stream collected: the whole grid joins one
        runner submission, and a sweep point is yielded the moment every
        model of *its* configuration has finished, instead of after the
        slowest point of the whole sweep.  Points arrive in completion order
        (cache-warm configurations first, then value order), and abandoning
        the iterator cancels unstarted jobs.
        """
        yield from self.iter_configs(
            build_labelled_configs(parameter, values, self._base_config, label_format)
        )

    def iter_configs(
        self, labelled_configs: Mapping[str, ArchitectureConfig]
    ) -> Iterator[SweepPoint]:
        """:meth:`iter_points` over explicit, pre-built configurations."""
        if not labelled_configs:
            raise AnalysisError("a sweep needs at least one configuration")
        runner = self._runner or get_default_runner()
        # Unique names: the stream collapses equivalent workload spellings
        # (e.g. "DCGAN" and "dcgan@64x64") to one group per name.
        expected = list(dict.fromkeys(model.name for model in self._models))
        pending: Dict[str, Dict[str, ComparisonResult]] = {}
        for label, model_name, multi in runner.stream_accelerators_over_configs(
            self._models,
            labelled_configs,
            COMPARISON_PAIR,
            baseline="eyeriss",
            options=self._options,
        ):
            per_label = pending.setdefault(label, {})
            per_label[model_name] = multi.as_comparison()
            if len(per_label) == len(expected):
                yield SweepPoint.from_comparisons(
                    label,
                    labelled_configs[label],
                    {name: per_label.pop(name) for name in expected},
                )
