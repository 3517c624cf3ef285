"""Whole-network simulator for the GANAX accelerator.

:class:`GanaxSimulator` mirrors :class:`~repro.baseline.simulator.EyerissSimulator`
but uses the GANAX analytical model (:mod:`repro.core.performance`): transposed
convolutions run in MIMD-SIMD mode with the reorganized dataflow and zero
skipping, every other layer runs in plain SIMD mode at baseline efficiency.
It registers itself as the ``"ganax"`` entry of the accelerator registry;
setting ``SimulationOptions.ganax_zero_skipping`` to False degrades the
transposed convolutions to dense execution (the ``"ganax-noskip"`` registry
variant packages exactly that).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..accelerators.base import GanSimulatorBase
from ..accelerators.registry import register_accelerator
from ..analysis.results import LayerResult
from ..baseline.performance import LayerEstimate
from ..nn.network import LayerBinding
from .performance import estimate_layer, estimate_network

#: Canonical accelerator identifier used in results.
ACCELERATOR_NAME = "ganax"


@register_accelerator(ACCELERATOR_NAME)
class GanaxSimulator(GanSimulatorBase):
    """Analytical simulator of the GANAX MIMD-SIMD accelerator."""

    accelerator_name = ACCELERATOR_NAME
    summary = (
        "GANAX unified MIMD-SIMD accelerator: reorganized dataflow with "
        "zero skipping on transposed convolutions"
    )

    def estimate_layer(self, binding: LayerBinding) -> LayerEstimate:
        """The layer's estimate under this simulator's options, unpriced."""
        return estimate_layer(
            binding,
            self._config,
            zero_skipping=self._options.ganax_zero_skipping,
            schedule=self._options.schedule,
        )

    def simulate_layer(self, binding: LayerBinding) -> LayerResult:
        """Simulate a single bound layer."""
        return self._layer_result(binding, self.estimate_layer(binding))

    def simulate_layers(
        self, bindings: Sequence[LayerBinding]
    ) -> Tuple[LayerResult, ...]:
        """Simulate a batch of layers through one ``estimate_network`` call."""
        estimates = estimate_network(
            bindings,
            self._config,
            zero_skipping=self._options.ganax_zero_skipping,
            schedule=self._options.schedule,
        )
        return self._layer_results_from_estimates(bindings, estimates)
