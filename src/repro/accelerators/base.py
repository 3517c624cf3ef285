"""The accelerator-facing protocol and shared whole-GAN simulator scaffolding.

Every architecture point the repository can evaluate — the EYERISS baseline,
GANAX, its ablated variants, roofline bounds, user-defined models — implements
the :class:`AcceleratorModel` protocol: a ``name``, the three simulation entry
points (``simulate_layer`` / ``simulate_network`` / ``simulate_gan``), a
``describe()`` record used for registry listings and cache-key versioning, and
``config_space()`` naming the :class:`~repro.config.ArchitectureConfig` fields
the model's estimates respond to.

:class:`GanSimulatorBase` is the shared implementation the built-in analytical
simulators derive from.  It owns the configuration/options/energy-model
wiring, the one function that batch-scales and prices a layer estimate
(:meth:`GanSimulatorBase._layer_result`), and the network / whole-GAN
aggregation including the paper's MAGAN discriminator accounting rule, so a
concrete model only supplies ``simulate_layer``.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..analysis.results import GanResult, LayerResult, NetworkResult
from ..config import ArchitectureConfig, SimulationOptions
from ..hw.energy import EnergyModel, EnergyTable
from ..nn.network import GANModel, LayerBinding, Network

if TYPE_CHECKING:  # the baseline package imports this module
    from ..baseline.performance import LayerEstimate


@runtime_checkable
class AcceleratorModel(Protocol):
    """Structural interface of one simulatable accelerator architecture."""

    @property
    def name(self) -> str:
        """Registry name reported in every result this model produces."""
        ...

    def describe(self) -> Dict[str, str]:
        """``{"name", "version", "description"}`` metadata for this model."""
        ...

    def config_space(self) -> Tuple[str, ...]:
        """Names of the configuration fields this model's estimates react to."""
        ...

    def simulate_layer(self, binding: LayerBinding) -> LayerResult: ...

    def simulate_network(
        self, network: Network, bindings: Optional[Iterable[LayerBinding]] = None
    ) -> NetworkResult: ...

    def simulate_gan(self, model: GANModel) -> GanResult: ...


class GanSimulatorBase:
    """Common machinery for the analytical whole-GAN simulators.

    Class attributes subclasses override:

    ``accelerator_name``
        The registry name; stamped into every :class:`LayerResult`,
        :class:`NetworkResult` and :class:`GanResult`.
    ``model_version``
        Bumped whenever the model's numbers change.  The registration
        decorator copies it into the :class:`AcceleratorSpec` (unless an
        explicit ``version=`` is given, which is written back here), and the
        spec version participates in the runner's cache keys, so stale
        cached results are never served for a revised model.
    ``summary``
        One-line human description used by ``describe()``.
    """

    accelerator_name: str = ""
    model_version: str = "1"
    summary: str = ""
    #: Whether :class:`~repro.hw.area.AreaModel` should include the
    #: GANAX-specific units (strided µindex generators, local/global µop
    #: buffers, address FIFOs) when costing this model's silicon.  True for
    #: every GANAX-derived model; the EYERISS baseline overrides it.
    ganax_area_model: bool = True

    def __init__(
        self,
        config: Optional[ArchitectureConfig] = None,
        energy_table: Optional[EnergyTable] = None,
        options: Optional[SimulationOptions] = None,
    ) -> None:
        self._config = config or ArchitectureConfig.paper_default()
        self._options = options or SimulationOptions()
        self._energy_model = EnergyModel(
            table=energy_table or EnergyTable.paper_table2(),
            data_bits=self._config.data_bits,
            gated_op_fraction=self._config.zero_gating_energy_fraction,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.accelerator_name

    @property
    def config(self) -> ArchitectureConfig:
        return self._config

    @property
    def options(self) -> SimulationOptions:
        return self._options

    def describe(self) -> Dict[str, str]:
        return {
            "name": self.accelerator_name,
            "version": self.model_version,
            "description": self.summary,
        }

    def config_space(self) -> Tuple[str, ...]:
        """Default: every architectural parameter may influence the model."""
        return tuple(f.name for f in dataclass_fields(ArchitectureConfig))

    @classmethod
    def canonical_options(cls, options: SimulationOptions) -> SimulationOptions:
        """Options as this model effectively simulates them.

        The runner fingerprints the canonical form, so option values a model
        ignores or forces (see ``ganax-noskip``) collapse to one cache entry.
        Overrides must preserve the cache contract: two option values that
        canonicalize equal must produce equal results on this model.
        """
        return options

    # ------------------------------------------------------------------
    # Layer / network / model entry points
    # ------------------------------------------------------------------
    def simulate_layer(self, binding: LayerBinding) -> LayerResult:
        raise NotImplementedError(
            f"{type(self).__name__} must implement simulate_layer"
        )

    def simulate_layers(
        self, bindings: Sequence[LayerBinding]
    ) -> Tuple[LayerResult, ...]:
        """Simulate a batch of bound layers (the network-simulation hot path).

        The default delegates to :meth:`simulate_layer` per binding; the
        built-in analytical simulators override it to estimate the batch in
        one ``estimate_network`` call (the same scalar estimator, with
        per-batch setup such as schedule resolution done once) and price each
        estimate with :meth:`_layer_result`, the one pricing function their
        ``simulate_layer`` uses too, so results equal the per-layer loop
        exactly.  The runner's layer-grain memo also routes its misses
        through this entry point.
        """
        return tuple(self.simulate_layer(binding) for binding in bindings)

    def _layer_results_from_estimates(
        self, bindings: Sequence[LayerBinding], estimates: Sequence[LayerEstimate]
    ) -> Tuple[LayerResult, ...]:
        """Price and batch-scale a column of per-layer estimates."""
        return tuple(map(self._layer_result, bindings, estimates))

    def _layer_result(
        self, binding: LayerBinding, estimate: LayerEstimate
    ) -> LayerResult:
        """Scale one layer's estimate by the batch size and price its energy.

        The single pricing function of every built-in simulator.  At batch
        size 1 the result takes over the estimate's counters instead of
        copying them: every estimate owns a fresh
        :class:`~repro.hw.counters.EventCounters`, and nothing mutates a
        result's counters afterwards.
        """
        batch = self._options.batch_size
        counters = estimate.counters
        if batch != 1:
            counters = counters.scaled(batch)
        return LayerResult(
            layer_name=binding.name,
            accelerator=self.name,
            cycles=estimate.cycles * batch,
            active_pe_cycles=estimate.active_pe_cycles * batch,
            busy_pe_cycles=estimate.busy_pe_cycles * batch,
            total_pe_cycles=estimate.total_pe_cycles * batch,
            macs_total=binding.total_macs * batch,
            macs_consequential=binding.consequential_macs * batch,
            counters=counters,
            energy=self._energy_model.energy_of(counters),
            is_transposed=binding.is_transposed,
            is_convolutional=binding.is_convolutional,
        )

    def simulate_network(
        self,
        network: Network,
        bindings: Optional[Iterable[LayerBinding]] = None,
        layer_fn: Optional[
            Callable[[Sequence[LayerBinding]], Sequence[LayerResult]]
        ] = None,
    ) -> NetworkResult:
        """Simulate every (or a chosen subset of) layer of ``network``.

        ``layer_fn`` replaces :meth:`simulate_layers` as the batch evaluator;
        the runner's layer-grain memo passes a wrapper that serves cached
        layers and routes only the misses into :meth:`simulate_layers`.
        """
        selected = tuple(bindings) if bindings is not None else network.bindings
        compute = layer_fn if layer_fn is not None else self.simulate_layers
        results = tuple(compute(selected))
        return NetworkResult(
            network_name=network.name,
            accelerator=self.name,
            layer_results=results,
        )

    def simulate_gan(
        self,
        model: GANModel,
        layer_fn: Optional[
            Callable[[Sequence[LayerBinding]], Sequence[LayerResult]]
        ] = None,
    ) -> GanResult:
        """Simulate a full GAN: generator plus (optionally) discriminator."""
        generator = self.simulate_network(model.generator, layer_fn=layer_fn)
        discriminator = None
        if self._options.include_discriminator:
            bindings = model.discriminator.bindings
            if model.discriminator_conv_only and self._options.magan_discriminator_conv_only:
                bindings = tuple(b for b in bindings if not b.is_transposed)
            discriminator = self.simulate_network(
                model.discriminator, bindings, layer_fn=layer_fn
            )
        return GanResult(
            model_name=model.name,
            accelerator=self.name,
            generator=generator,
            discriminator=discriminator,
        )
