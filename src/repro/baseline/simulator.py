"""Whole-network simulator for the EYERISS-style baseline accelerator.

:class:`EyerissSimulator` runs a :class:`~repro.nn.network.Network` or a
:class:`~repro.nn.network.GANModel` layer by layer through the analytical
performance model (:mod:`repro.baseline.performance`) and the Table II energy
model, producing the result containers of :mod:`repro.analysis.results`.  The
network/GAN aggregation is shared with every other accelerator model through
:class:`~repro.accelerators.base.GanSimulatorBase`, and the class registers
itself as the ``"eyeriss"`` entry of the accelerator registry.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..accelerators.base import GanSimulatorBase
from ..accelerators.registry import register_accelerator
from ..analysis.results import LayerResult
from ..config import SimulationOptions
from ..nn.network import LayerBinding
from .performance import estimate_layer, estimate_network

#: Canonical accelerator identifier used in results.
ACCELERATOR_NAME = "eyeriss"


@register_accelerator(ACCELERATOR_NAME)
class EyerissSimulator(GanSimulatorBase):
    """Analytical simulator of the EYERISS-style convolution accelerator."""

    accelerator_name = ACCELERATOR_NAME
    summary = (
        "EYERISS-style row-stationary baseline: dense execution over the "
        "zero-inserted input with zero-gated MAC energy"
    )
    ganax_area_model = False  # no µindex generators / µop buffers on die

    def simulate_layer(self, binding: LayerBinding) -> LayerResult:
        """Simulate a single bound layer."""
        estimate = estimate_layer(binding, self._config)
        return self._layer_result(
            binding,
            cycles=estimate.cycles,
            active_pe_cycles=estimate.active_pe_cycles,
            busy_pe_cycles=estimate.busy_pe_cycles,
            total_pe_cycles=estimate.total_pe_cycles,
            counters=estimate.counters,
        )

    def simulate_layers(
        self, bindings: Sequence[LayerBinding]
    ) -> Tuple[LayerResult, ...]:
        """Simulate a batch of layers through one ``estimate_network`` call."""
        estimates = estimate_network(bindings, self._config)
        return self._layer_results_from_estimates(bindings, estimates)

    def config_space(self) -> Tuple[str, ...]:
        """The baseline model has no MIMD machinery to configure."""
        excluded = {"mimd_dispatch_overhead_cycles", "ganax_target_utilization"}
        return tuple(f for f in super().config_space() if f not in excluded)

    @classmethod
    def canonical_options(cls, options: SimulationOptions) -> SimulationOptions:
        """The baseline reads neither the zero-skipping flag nor the schedule.

        Both collapse to their defaults so e.g. every (geometry × schedule)
        DSE point shares one baseline cache entry per geometry.
        """
        return options.with_updates(ganax_zero_skipping=True, schedule="default")
