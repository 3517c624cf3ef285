"""Structural analysis of zero-insertion in transposed convolution layers.

This module answers, for a given transposed-convolution layer, the questions
that drive both the paper's motivation (Figure 1) and the GANAX dataflow
(Section II):

* how many multiply-adds of the dense (zero-inserted) convolution are
  *inconsequential* because one operand is an inserted zero,
* which filter rows are consequential for which output rows (the *row
  patterns*), and
* how many distinct row patterns exist (equal to the vertical stride), which
  determines how many distinct µop sequences — and thus how much MIMD-ness —
  the layer needs.

The counts are exact arithmetic; the tests cross-check them against
independent mask-based and implicit-GEMM counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..errors import LayerError
from .layers import TransposedConvLayer
from .shapes import FeatureMapShape


@dataclass(frozen=True)
class RowPattern:
    """The computation pattern of one output row of a transposed convolution.

    Attributes
    ----------
    phase:
        Row phase, i.e. the output row index modulo the vertical stride after
        accounting for the border offset.  Rows with equal phase share the
        same pattern.
    consequential_filter_rows:
        Indices of filter rows that touch genuine input values for rows of
        this phase (interior rows; border rows may see a truncated subset).
    taps_per_output_column:
        For each output-column phase, the number of consequential kernel
        columns, i.e. the fine-grain work per output element.
    """

    phase: int
    consequential_filter_rows: Tuple[int, ...]
    taps_per_output_column: Tuple[int, ...]

    @property
    def filter_rows_used(self) -> int:
        """Number of filter rows contributing to rows of this phase."""
        return len(self.consequential_filter_rows)


@dataclass(frozen=True)
class TransposedConvAnalysis:
    """Aggregate structural statistics for one transposed-convolution layer."""

    layer_name: str
    input_shape: FeatureMapShape
    output_shape: FeatureMapShape
    total_macs: int
    consequential_macs: int
    row_patterns: Tuple[RowPattern, ...]
    rows_per_pattern: Tuple[int, ...]

    @property
    def inconsequential_macs(self) -> int:
        return self.total_macs - self.consequential_macs

    @property
    def inconsequential_fraction(self) -> float:
        if self.total_macs == 0:
            return 0.0
        return self.inconsequential_macs / self.total_macs

    @property
    def num_patterns(self) -> int:
        """Number of distinct row computation patterns (== vertical stride)."""
        return len(self.row_patterns)


# ----------------------------------------------------------------------
# Exact arithmetic analysis
# ----------------------------------------------------------------------
def analyze_transposed_conv(
    layer: TransposedConvLayer, input_shape: FeatureMapShape
) -> TransposedConvAnalysis:
    """Exact structural analysis of a transposed-convolution layer."""
    if not isinstance(layer, TransposedConvLayer):
        raise LayerError(f"{layer.name} is not a transposed convolution")
    out = layer.output_shape(input_shape)

    # Row patterns are defined along the second-to-last spatial dimension for
    # rank >= 2 layers (the "height"); rank-1 layers use their only dimension.
    row_dim = max(layer.rank - 2, 0)
    col_dim = layer.rank - 1

    stride_rows = layer.stride[row_dim]
    kernel_rows = layer.kernel[row_dim]
    padding_rows = layer.padding[row_dim]
    border_rows = kernel_rows - 1 - padding_rows

    col_taps = layer.consequential_taps_along_dim(input_shape, col_dim)
    col_phase_taps = _phase_taps(col_taps, layer.stride[col_dim])

    out_rows = out.spatial[row_dim]
    patterns: List[RowPattern] = []
    rows_counts: List[int] = []
    # Only phases that actually occur in the output contribute a pattern (for
    # very small outputs the number of patterns is bounded by the row count).
    for phase in range(min(stride_rows, out_rows)):
        filter_rows = tuple(
            k
            for k in range(kernel_rows)
            if (phase + k - border_rows) % stride_rows == 0
        )
        patterns.append(
            RowPattern(
                phase=phase,
                consequential_filter_rows=filter_rows,
                taps_per_output_column=col_phase_taps,
            )
        )
        rows_counts.append(_count_rows_with_phase(out_rows, stride_rows, phase))
    rows_per_pattern = tuple(rows_counts)

    return TransposedConvAnalysis(
        layer_name=layer.name,
        input_shape=input_shape,
        output_shape=out,
        total_macs=layer.total_macs(input_shape),
        consequential_macs=layer.consequential_macs(input_shape),
        row_patterns=tuple(patterns),
        rows_per_pattern=rows_per_pattern,
    )


@lru_cache(maxsize=4096)
def _phase_taps(taps: Tuple[int, ...], stride: int) -> Tuple[int, ...]:
    """Representative (interior) tap count per output-column phase.

    Interior columns of one phase all share the same count; borders may be
    truncated, so the per-phase maximum is the interior value.  Vectorized
    (one grouped-maximum over the whole tap row) and memoized per
    (taps, stride): distinct layers of the same geometry share one entry.
    """
    counts = np.asarray(taps, dtype=np.int64)
    maxima = np.zeros(stride, dtype=np.int64)  # phases with no columns stay 0
    np.maximum.at(maxima, np.arange(len(taps), dtype=np.int64) % stride, counts)
    return tuple(int(value) for value in maxima)


def _count_rows_with_phase(extent: int, stride: int, phase: int) -> int:
    """Number of output rows in [0, extent) whose index % stride == phase."""
    if phase >= extent:
        return 0
    return (extent - 1 - phase) // stride + 1
