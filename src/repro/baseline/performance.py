"""Analytical cycle and activity model of the EYERISS-style baseline.

The baseline executes every layer — including transposed convolutions — with
the conventional row-stationary convolution dataflow: the zero-inserted input
is streamed in and every multiply-add slot occupies a PE for a cycle.  Data
gating (which EYERISS implements) suppresses the *energy* of a multiply whose
input operand is zero, but the cycle is still spent, matching the paper's
discussion in Sections III and VII.

The model produces, per layer:

* a cycle count composed of a compute term, a horizontal partial-sum
  accumulation term, and a DRAM roofline bound,
* :class:`~repro.hw.counters.EventCounters` describing register-file, NoC,
  global-buffer and DRAM activity, which the energy model prices, and
* PE-activity numbers (active vs busy vs total PE-cycles) for utilization
  reporting (Figure 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..config import ArchitectureConfig
from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..nn.layers import ConvLayer, TransposedConvLayer
from ..nn.network import LayerBinding
from .row_stationary import RowStationaryMapping, map_layer, spatial_rows_cols

@dataclass(frozen=True)
class BaselineLayerEstimate:
    """Cycle and activity estimate of one layer on the EYERISS baseline."""

    layer_name: str
    cycles: int
    compute_cycles: int
    accumulation_cycles: int
    dram_cycles: int
    active_pe_cycles: int
    busy_pe_cycles: int
    total_pe_cycles: int
    counters: EventCounters
    mapping: RowStationaryMapping


def gbuf_input_tiles(
    input_elements: int, config: ArchitectureConfig
) -> int:
    """Number of input tiles forced by the global data buffer capacity.

    The accelerator keeps a tile of the (possibly zero-inserted) input feature
    map plus the partial sums it produces resident in the global data buffer
    and streams the layer weights from DRAM once per tile.  Half the buffer is
    reserved for partial sums and double buffering, so the usable tile
    capacity is half the buffer's word count.  Layers whose working set does
    not fit in a single tile therefore re-read their weights from DRAM once
    per additional tile — this is how the zero-inserted input of a transposed
    convolution inflates the baseline's DRAM traffic.
    """
    gbuf_words = config.global_data_buffer_bytes // config.data_bytes
    tile_capacity = max(1, gbuf_words // 2)
    return max(1, math.ceil(input_elements / tile_capacity))


def _effective_input_elements(binding: LayerBinding) -> int:
    """Number of input words the baseline streams and operates on.

    For a transposed convolution the baseline operates on the zero-inserted
    input, so the streamed volume is the expanded spatial size times the
    channel count.  For everything else it is the genuine input size.
    """
    layer = binding.layer
    if isinstance(layer, TransposedConvLayer):
        expanded = layer.zero_inserted_spatial(binding.input_shape)
        elements = binding.input_shape.channels
        for extent in expanded:
            elements *= extent
        return elements
    return binding.input_shape.num_elements


def estimate_layer(
    binding: LayerBinding, config: ArchitectureConfig
) -> BaselineLayerEstimate:
    """Estimate cycles and activity of one layer on the EYERISS baseline."""
    layer = binding.layer
    if not binding.is_convolutional:
        return _estimate_non_convolutional(binding, config)

    mapping = map_layer(binding, config)
    peak = config.num_pes
    effective_throughput = peak * mapping.occupancy
    if effective_throughput <= 0:
        raise SimulationError(f"{layer.name}: zero effective throughput")

    dense_macs = binding.total_macs
    consequential = binding.consequential_macs
    gated = dense_macs - consequential

    filter_rows, _fc, output_rows, _oc = spatial_rows_cols(binding)
    output_elements = binding.output_shape.num_elements

    # --- cycles --------------------------------------------------------
    compute_cycles = math.ceil(dense_macs / effective_throughput)
    # Horizontal accumulation: every output element gathers partial sums from
    # the full filter-row chain, regardless of inserted zeros (Figure 4b).
    accumulation_hops = output_elements * filter_rows
    accumulation_cycles = math.ceil(accumulation_hops / effective_throughput)

    input_elements = _effective_input_elements(binding)
    weight_words = binding.weight_count
    output_words = output_elements
    weight_tiles = gbuf_input_tiles(input_elements, config)
    dram_read_words = input_elements + weight_words * weight_tiles
    # A conventional convolution dataflow consumes a *materialised*
    # zero-inserted input, so for transposed convolutions the expanded feature
    # map is written out once (by the zero-insertion pass) before being read
    # back; GANAX never materialises it.
    if isinstance(layer, TransposedConvLayer):
        materialisation_words = input_elements
    else:
        materialisation_words = 0
    dram_write_words = output_words + materialisation_words
    dram_words = dram_read_words + dram_write_words
    dram_bytes = dram_words * config.data_bytes
    dram_cycles = math.ceil(dram_bytes / config.dram_bandwidth_bytes_per_cycle)

    cycles = max(compute_cycles + accumulation_cycles, dram_cycles)

    # --- activity counters ----------------------------------------------
    counters = EventCounters()
    counters.mac_ops = consequential
    counters.gated_ops = gated
    counters.alu_ops = accumulation_hops

    # Register file: consequential MACs read input+weight and update a psum
    # (3 accesses); gated slots still read the input operand to detect the
    # zero and keep the partial sum flowing through the pipeline (2 accesses).
    counters.register_file_reads = 2 * consequential + gated
    counters.register_file_writes = consequential + gated

    # Output-channel passes force the (expanded) input to be re-fetched from
    # the global buffer; weights are fetched once per pass over the input.
    out_channels = binding.output_shape.channels
    m_parallel = max(1, mapping.sets_per_pass)
    m_passes = max(1, math.ceil(out_channels / m_parallel))
    gbuf_input_reads = input_elements * m_passes
    gbuf_weight_reads = weight_words * weight_tiles
    counters.global_buffer_reads = gbuf_input_reads + gbuf_weight_reads
    counters.global_buffer_writes = output_words

    # NoC: delivery of operands from the global buffer into the array plus
    # psum forwarding along the accumulation chain.
    counters.noc_transfers = (
        gbuf_input_reads + gbuf_weight_reads + accumulation_hops
    )

    counters.dram_reads = dram_read_words
    counters.dram_writes = dram_write_words

    active_pe_cycles = consequential
    busy_pe_cycles = dense_macs + accumulation_hops
    total_pe_cycles = cycles * peak

    return BaselineLayerEstimate(
        layer_name=layer.name,
        cycles=cycles,
        compute_cycles=compute_cycles,
        accumulation_cycles=accumulation_cycles,
        dram_cycles=dram_cycles,
        active_pe_cycles=active_pe_cycles,
        busy_pe_cycles=busy_pe_cycles,
        total_pe_cycles=total_pe_cycles,
        counters=counters,
        mapping=mapping,
    )


def _estimate_non_convolutional(
    binding: LayerBinding, config: ArchitectureConfig
) -> BaselineLayerEstimate:
    """Dense/batch-norm/activation/pooling layers: element-wise streaming.

    These layers are a negligible share of GAN compute; they are modelled as
    a streaming pass over their operands at one element per PE per cycle,
    bounded by DRAM bandwidth for the dense (fully connected) layers whose
    weights dominate traffic.
    """
    peak = config.num_pes
    macs = binding.total_macs
    elements = binding.output_shape.num_elements
    weight_words = binding.weight_count

    compute_cycles = math.ceil(max(macs, elements) / peak)
    dram_words = binding.input_shape.num_elements + weight_words + elements
    dram_bytes = dram_words * config.data_bytes
    dram_cycles = math.ceil(dram_bytes / config.dram_bandwidth_bytes_per_cycle)
    cycles = max(compute_cycles, dram_cycles)

    counters = EventCounters()
    counters.mac_ops = macs
    counters.alu_ops = 0 if macs else elements
    counters.register_file_reads = 2 * macs
    counters.register_file_writes = macs
    counters.global_buffer_reads = binding.input_shape.num_elements + weight_words
    counters.global_buffer_writes = elements
    counters.noc_transfers = binding.input_shape.num_elements + weight_words
    counters.dram_reads = binding.input_shape.num_elements + weight_words
    counters.dram_writes = elements

    # A mapping placeholder describing a fully-occupied streaming pass.
    mapping = RowStationaryMapping(
        filter_rows=1,
        output_rows=1,
        set_height=1,
        set_width=1,
        folds=1,
        sets_per_pass=config.num_pes,
        occupancy=1.0,
    )
    return BaselineLayerEstimate(
        layer_name=binding.name,
        cycles=cycles,
        compute_cycles=compute_cycles,
        accumulation_cycles=0,
        dram_cycles=dram_cycles,
        active_pe_cycles=macs,
        busy_pe_cycles=max(macs, elements),
        total_pe_cycles=cycles * peak,
        counters=counters,
        mapping=mapping,
    )


def estimate_network(
    bindings: Sequence[LayerBinding], config: ArchitectureConfig
) -> Tuple[BaselineLayerEstimate, ...]:
    """Estimate every layer of a network, in binding order.

    The batch entry point of the baseline model: exactly
    :func:`estimate_layer` mapped over ``bindings``.
    """
    return tuple(estimate_layer(binding, config) for binding in bindings)
