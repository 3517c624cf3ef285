"""Analytical cycle and activity model of the GANAX accelerator.

GANAX executes conventional convolutions in pure SIMD mode with the same
row-stationary behaviour as the EYERISS baseline ("without compromising the
efficiency of conventional convolution accelerators"), so those layers reuse
the baseline estimate.  Transposed convolutions run in MIMD-SIMD mode with the
GANAX dataflow:

* only consequential multiply-adds occupy PE cycles (zero skipping via the
  strided µindex generators),
* the output/filter-row reorganization packs the consequential filter rows
  onto adjacent PEs, so the horizontal accumulation chain shrinks from the
  full kernel height to the number of consequential filter rows,
* the global controller pays a small MIMD dispatch overhead per group of
  µops, amortised by the ``repeat`` µop and the decoupled access engines, and
* DRAM traffic covers only genuine values — the zeros are never stored or
  streamed because the index generators skip them.

The model also caps the achievable utilization at
``ArchitectureConfig.ganax_target_utilization`` to reflect pipeline ramp-up,
edge windows and residual load imbalance (the paper reports roughly 90% PE
utilization rather than 100%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..baseline.performance import (
    BaselineLayerEstimate,
    estimate_layer as baseline_estimate,
    gbuf_input_tiles,
)
from ..baseline.row_stationary import RowStationaryMapping, map_layer
from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..isa.encoding import GLOBAL_UOP_BITS
from ..nn.layers import TransposedConvLayer
from ..nn.network import LayerBinding
from ..schedule import ScheduleLike, ScheduleSpec, resolve_schedule
from .dataflow import ScheduleSummary, schedule_summary


def _iround(value: float) -> int:
    """Deterministic nearest-integer rounding shared by every estimator path.

    Plain ``int(round(x))`` is half-to-even on the arriving float64, which
    makes the result sensitive to sub-ULP noise whenever two algebraically
    equal float expressions reach the same quantity.  Quantizing to nine
    decimals first snaps that noise away while preserving the half-to-even
    behaviour on genuine ties (e.g. an exactly-2.5 average filter-row count
    still rounds to 2).  The golden paper numbers depend on exactly this tie
    breaking, so every rounded estimator quantity goes through here.
    """
    return int(round(round(float(value), 9)))


@dataclass(frozen=True)
class GanaxLayerEstimate:
    """Cycle and activity estimate of one layer on GANAX."""

    layer_name: str
    cycles: int
    compute_cycles: int
    accumulation_cycles: int
    dispatch_cycles: int
    dram_cycles: int
    active_pe_cycles: int
    busy_pe_cycles: int
    total_pe_cycles: int
    counters: EventCounters
    mode: str  # "simd" for conventional layers, "mimd-simd" for tconv


def estimate_layer(
    binding: LayerBinding,
    config: ArchitectureConfig,
    *,
    zero_skipping: bool = True,
    schedule: ScheduleLike = None,
) -> GanaxLayerEstimate:
    """Estimate cycles and activity of one layer on GANAX.

    ``zero_skipping=False`` models the ablated dense machine (the
    ``"ganax-noskip"`` registry entry): transposed convolutions execute the
    zero-inserted input with the conventional row-stationary dataflow while
    the global controller still pays the MIMD µop dispatch overhead.

    ``schedule`` selects the :class:`~repro.schedule.ScheduleSpec` whose
    lowering knobs scale the dispatch accounting (see
    :func:`_dispatch_overhead`); the default spec reproduces the legacy
    estimate exactly.  Conventional layers run in pure SIMD mode where the
    MIMD schedule has no effect.
    """
    return _estimate(binding, config, zero_skipping, resolve_schedule(schedule))


def _estimate(
    binding: LayerBinding,
    config: ArchitectureConfig,
    zero_skipping: bool,
    spec: ScheduleSpec,
) -> GanaxLayerEstimate:
    """:func:`estimate_layer` with the schedule already resolved."""
    if isinstance(binding.layer, TransposedConvLayer):
        if not zero_skipping:
            return _estimate_dense_transposed_conv(binding, config, spec)
        return _estimate_transposed_conv(binding, config, spec)
    return _from_baseline(baseline_estimate(binding, config), mode="simd")


def _dispatch_overhead(
    schedule: ScheduleSummary, config: ArchitectureConfig, spec: ScheduleSpec
) -> Tuple[int, int, int]:
    """MIMD dispatch accounting shared by the skipping and dense tconv paths.

    One mimd.exe (plus its access configuration, amortised by the decoupled
    access engines) is charged per output row per pattern switch; the
    two-level µop buffer makes the dispatch a single-cycle broadcast.
    Returns ``(dispatch_events, dispatch_cycles, uop_fetches)`` — both
    execution modes must model the same dispatch tax, since their difference
    is exactly what the zero-skipping ablation isolates.

    The schedule spec scales the tax with pure-integer factors — repeat
    unrolling multiplies the dispatch events, configuration hoisting shrinks
    the per-event µop-fetch fan-out — so the event and fetch counts stay
    exact integers and the default spec reproduces the legacy numbers
    exactly.
    """
    dispatch_events = (
        schedule.output_rows
        * max(1, schedule.num_patterns)
        * spec.dispatch_event_multiplier()
    )
    dispatch_cycles = math.ceil(
        dispatch_events * config.mimd_dispatch_overhead_cycles / max(1, config.num_pvs)
    )
    uop_fetches = dispatch_events * spec.uop_fetches_per_event(config.num_pvs)
    return dispatch_events, dispatch_cycles, uop_fetches


def _from_baseline(estimate: BaselineLayerEstimate, mode: str) -> GanaxLayerEstimate:
    """Wrap a baseline estimate: GANAX matches EYERISS on conventional layers."""
    return GanaxLayerEstimate(
        layer_name=estimate.layer_name,
        cycles=estimate.cycles,
        compute_cycles=estimate.compute_cycles,
        accumulation_cycles=estimate.accumulation_cycles,
        dispatch_cycles=0,
        dram_cycles=estimate.dram_cycles,
        active_pe_cycles=estimate.active_pe_cycles,
        busy_pe_cycles=estimate.busy_pe_cycles,
        total_pe_cycles=estimate.total_pe_cycles,
        counters=estimate.counters,
        mode=mode,
    )


def _estimate_transposed_conv(
    binding: LayerBinding, config: ArchitectureConfig, spec: ScheduleSpec
) -> GanaxLayerEstimate:
    layer = binding.layer
    assert isinstance(layer, TransposedConvLayer)
    schedule = schedule_summary(binding)
    mapping = _reorganized_mapping(binding, schedule, config)

    peak = config.num_pes
    utilization_cap = config.ganax_target_utilization
    effective_throughput = peak * mapping.occupancy * utilization_cap
    if effective_throughput <= 0:
        raise SimulationError(f"{layer.name}: zero effective throughput")

    consequential = binding.consequential_macs
    output_elements = binding.output_shape.num_elements

    # --- compute -----------------------------------------------------------
    compute_cycles = math.ceil(consequential / effective_throughput)

    # --- horizontal accumulation -------------------------------------------
    # After the filter-row reorganization only the consequential filter rows
    # take part in the accumulation chain of each output row (2-3 hops instead
    # of the full kernel height in the paper's example).
    avg_active_rows = max(1.0, schedule.average_active_filter_rows)
    depth_taps = _depth_tap_factor(layer, binding)
    accumulation_hops = _iround(output_elements * avg_active_rows * depth_taps)
    accumulation_cycles = math.ceil(accumulation_hops / effective_throughput)

    # --- MIMD dispatch overhead ---------------------------------------------
    dispatch_events, dispatch_cycles, uop_fetches = _dispatch_overhead(
        schedule, config, spec
    )

    # --- DRAM ---------------------------------------------------------------
    # Only genuine values are streamed: the zero insertion is performed
    # implicitly by the strided µindex generators, so the working set that
    # determines the weight re-streaming tile count is the genuine input.
    input_elements = binding.input_shape.num_elements
    weight_words = binding.weight_count
    output_words = output_elements
    weight_tiles = gbuf_input_tiles(input_elements, config)
    dram_read_words = input_elements + weight_words * weight_tiles
    dram_words = dram_read_words + output_words
    dram_bytes = dram_words * config.data_bytes
    dram_cycles = math.ceil(dram_bytes / config.dram_bandwidth_bytes_per_cycle)

    cycles = max(compute_cycles + accumulation_cycles + dispatch_cycles, dram_cycles)

    # --- activity counters ---------------------------------------------------
    counters = EventCounters()
    counters.mac_ops = consequential
    counters.gated_ops = 0
    counters.alu_ops = accumulation_hops
    counters.index_generations = 3 * consequential  # input, weight, output streams

    counters.register_file_reads = 2 * consequential
    counters.register_file_writes = consequential

    out_channels = binding.output_shape.channels
    m_parallel = max(1, mapping.sets_per_pass)
    m_passes = max(1, math.ceil(out_channels / m_parallel))
    gbuf_input_reads = input_elements * m_passes
    gbuf_weight_reads = weight_words * weight_tiles
    counters.global_buffer_reads = gbuf_input_reads + gbuf_weight_reads
    counters.global_buffer_writes = output_words

    counters.noc_transfers = gbuf_input_reads + gbuf_weight_reads + accumulation_hops

    counters.dram_reads = dram_read_words
    counters.dram_writes = output_words

    # µop fetches: one global fetch per dispatch event plus the local-buffer
    # fetches the PVs perform; both are tiny next to data traffic but are
    # counted for completeness (they appear in the RF/µop energy bucket).
    counters.uop_fetches = uop_fetches

    active_pe_cycles = consequential
    busy_pe_cycles = consequential + accumulation_hops
    total_pe_cycles = cycles * peak

    return GanaxLayerEstimate(
        layer_name=layer.name,
        cycles=cycles,
        compute_cycles=compute_cycles,
        accumulation_cycles=accumulation_cycles,
        dispatch_cycles=dispatch_cycles,
        dram_cycles=dram_cycles,
        active_pe_cycles=active_pe_cycles,
        busy_pe_cycles=busy_pe_cycles,
        total_pe_cycles=total_pe_cycles,
        counters=counters,
        mode="mimd-simd",
    )


def _estimate_dense_transposed_conv(
    binding: LayerBinding, config: ArchitectureConfig, spec: ScheduleSpec
) -> GanaxLayerEstimate:
    """Transposed convolution with zero skipping disabled (``ganax-noskip``).

    Without the strided µindex generators every inserted-zero slot occupies a
    PE cycle and the materialised zero-inserted input is streamed exactly as
    on the EYERISS baseline, so cycles, traffic and energy follow the
    baseline estimate.  The MIMD controller still issues one µop group per
    output row per access pattern, which is pure overhead here — the variant
    pays the GANAX dispatch tax without harvesting any sparsity.
    """
    base = baseline_estimate(binding, config)
    schedule = schedule_summary(binding)
    _events, dispatch_cycles, uop_fetches = _dispatch_overhead(schedule, config, spec)
    cycles = max(
        base.compute_cycles + base.accumulation_cycles + dispatch_cycles,
        base.dram_cycles,
    )
    counters = EventCounters.from_dict(base.counters.as_dict())
    counters.uop_fetches += uop_fetches
    return GanaxLayerEstimate(
        layer_name=binding.name,
        cycles=cycles,
        compute_cycles=base.compute_cycles,
        accumulation_cycles=base.accumulation_cycles,
        dispatch_cycles=dispatch_cycles,
        dram_cycles=base.dram_cycles,
        active_pe_cycles=base.active_pe_cycles,
        busy_pe_cycles=base.busy_pe_cycles,
        total_pe_cycles=cycles * config.num_pes,
        counters=counters,
        mode="mimd-simd-dense",
    )


def _reorganized_mapping(
    binding: LayerBinding, schedule: ScheduleSummary, config: ArchitectureConfig
) -> RowStationaryMapping:
    """Spatial mapping after the output/filter-row reorganization.

    The reorganization removes the idle compute nodes from every PE set: the
    logical set height shrinks from the kernel height to the average number of
    consequential filter rows, which lets more sets be replicated across the
    array and raises occupancy (Figure 5c).
    """
    base = map_layer(binding, config)
    avg_rows = max(1, _iround(schedule.average_active_filter_rows))
    set_height = min(avg_rows, config.num_pvs)
    set_width = base.set_width
    sets_down = max(1, config.num_pvs // set_height)
    sets_across = max(1, config.pes_per_pv // set_width)
    sets_per_pass = sets_down * sets_across
    used = sets_per_pass * set_height * set_width
    occupancy = min(1.0, used / config.num_pes)
    return RowStationaryMapping(
        filter_rows=avg_rows,
        output_rows=base.output_rows,
        set_height=set_height,
        set_width=set_width,
        folds=base.folds,
        sets_per_pass=sets_per_pass,
        occupancy=occupancy,
    )


def estimate_network(
    bindings: Sequence[LayerBinding],
    config: ArchitectureConfig,
    *,
    zero_skipping: bool = True,
    schedule: ScheduleLike = None,
) -> Tuple[GanaxLayerEstimate, ...]:
    """Estimate every layer of a network on GANAX, in binding order.

    The batch entry point of the GANAX model: exactly :func:`estimate_layer`
    mapped over ``bindings``, with the schedule resolved once for the batch.
    """
    spec = resolve_schedule(schedule)
    return tuple(
        _estimate(binding, config, zero_skipping, spec) for binding in bindings
    )


def _depth_tap_factor(layer: TransposedConvLayer, binding: LayerBinding) -> float:
    """Average consequential taps along the depth dimension of rank-3 layers.

    The 2-D schedule describes one depth slice; a voxel output element also
    accumulates across the consequential kernel planes, which multiplies the
    number of accumulation hops.  For rank-2 layers the factor is 1.
    """
    if layer.rank < 3:
        return 1.0
    taps = layer.consequential_taps_along_dim(binding.input_shape, 0)
    if not taps:
        return 1.0
    return max(1.0, sum(taps) / len(taps))
