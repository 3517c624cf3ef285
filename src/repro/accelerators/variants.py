"""Built-in accelerator variants beyond the paper's two-point comparison.

These entries exercise the registry with genuinely heterogeneous models built
from the existing machinery:

* ``ganax-noskip`` — the GANAX machine with zero skipping disabled (forced
  through :attr:`~repro.config.SimulationOptions.ganax_zero_skipping`): the
  transposed convolutions execute the zero-inserted input densely like the
  baseline while still paying the MIMD µop dispatch overhead.  Its speedup
  over EYERISS is therefore slightly *below* 1x, isolating how much of the
  GANAX win comes from the sparsity machinery rather than the MIMD substrate.
* ``ideal`` — a consequential-MACs roofline: every layer finishes in
  ``ceil(consequential_macs / peak_macs_per_cycle)`` cycles and spends only
  MAC energy.  It is the upper bound no dataflow can beat on this array, so
  the gap between ``ganax`` and ``ideal`` is the remaining headroom.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..analysis.results import LayerResult
from ..baseline.performance import LayerEstimate, streaming_mapping
from ..config import ArchitectureConfig, SimulationOptions
from ..core.simulator import GanaxSimulator
from ..hw.counters import EventCounters
from ..hw.energy import EnergyTable
from ..nn.network import LayerBinding
from .base import GanSimulatorBase
from .registry import register_accelerator


@register_accelerator("ganax-noskip")
class GanaxNoSkipSimulator(GanaxSimulator):
    """GANAX ablation: MIMD-SIMD machine with zero skipping disabled."""

    accelerator_name = "ganax-noskip"
    summary = (
        "GANAX without zero skipping: dense transposed convolutions that "
        "still pay the MIMD dispatch overhead"
    )

    def __init__(
        self,
        config: Optional[ArchitectureConfig] = None,
        energy_table: Optional[EnergyTable] = None,
        options: Optional[SimulationOptions] = None,
    ) -> None:
        options = self.canonical_options(options or SimulationOptions())
        super().__init__(config=config, energy_table=energy_table, options=options)

    @classmethod
    def canonical_options(cls, options: SimulationOptions) -> SimulationOptions:
        """This variant forces zero skipping off whatever the caller passed."""
        return options.with_updates(ganax_zero_skipping=False)


@register_accelerator("ideal")
class IdealRooflineSimulator(GanSimulatorBase):
    """Consequential-MACs roofline: the bound no dataflow can beat."""

    accelerator_name = "ideal"
    summary = (
        "Ideal roofline: consequential MACs at peak array throughput, "
        "MAC energy only"
    )

    def simulate_layer(self, binding: LayerBinding) -> LayerResult:
        """One layer at peak throughput over its consequential work.

        Layers without MACs (activations, batch norm) stream one output element
        per PE per cycle, mirroring the baseline's accounting for them.
        """
        macs = binding.consequential_macs
        work = macs if macs else binding.output_elements
        num_pes = self._config.num_pes
        cycles = math.ceil(work / self._config.peak_macs_per_cycle)
        estimate = LayerEstimate(
            layer_name=binding.name,
            cycles=cycles,
            compute_cycles=cycles,
            accumulation_cycles=0,
            dram_cycles=0,
            active_pe_cycles=macs,
            busy_pe_cycles=work,
            total_pe_cycles=cycles * num_pes,
            counters=EventCounters(mac_ops=macs),
            mapping=streaming_mapping(num_pes),
        )
        return self._layer_result(binding, estimate)

    def config_space(self) -> Tuple[str, ...]:
        """Only the array geometry and clock move the roofline."""
        return ("num_pvs", "pes_per_pv", "frequency_hz", "data_bits")

    @classmethod
    def canonical_options(cls, options: SimulationOptions) -> SimulationOptions:
        """The roofline reads neither the zero-skipping flag nor the schedule."""
        return options.with_updates(ganax_zero_skipping=True, schedule="default")
