"""The GANAX flow of data: output-row and filter-row reorganization.

Section II of the paper develops two dataflow optimizations for executing a
transposed convolution on a spatial array:

1. **Output-row reorganization** — output rows sharing the same pattern of
   consequential filter rows (the same *row phase*) are made adjacent so they
   can be processed by neighbouring processing vectors and reuse the same
   filter rows.
2. **Filter-row reorganization** — within each output-row group the filter
   rows are packed so the idle compute nodes (those whose filter row only ever
   multiplies inserted zeros) can be removed from the dataflow entirely.

The result is a :class:`DataflowSchedule`: for each row phase, the group of
output rows, the consequential filter rows assigned to the PEs of the PV
processing that group, and the per-output-column work.  The cycle-level
layer compiler consumes this schedule; the analytical performance model reads
:func:`schedule_summary`, the same row geometry aggregated without building
the per-row tuples (``tests/test_dataflow.py`` pins the two equal).  So the
same reorganization drives the experiments and the functional validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..errors import DataflowError
from ..nn.layers import ConvLayer, TransposedConvLayer
from ..nn.network import LayerBinding
from ..nn.shapes import FeatureMapShape
from ..schedule import ScheduleLike, resolve_schedule


@dataclass(frozen=True)
class ColumnSegment:
    """A run of same-phase output columns within one output row.

    Attributes
    ----------
    phase:
        Column phase (output column index modulo the horizontal stride).
    columns:
        Output column indices belonging to this phase, in increasing order.
    taps:
        Number of consequential kernel columns for the interior columns of
        this phase (border columns may see fewer; the compiler handles them
        explicitly, the analytical model uses the interior value).
    input_start_columns:
        For each output column, the starting column in the *genuine* (packed)
        input that its window covers.
    kernel_columns:
        The consequential kernel column indices for interior columns.
    """

    phase: int
    columns: Tuple[int, ...]
    taps: int
    input_start_columns: Tuple[int, ...]
    kernel_columns: Tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class RowGroup:
    """All output rows of one row phase plus their filter-row assignment.

    Attributes
    ----------
    phase:
        Row phase (output row index modulo the vertical stride).
    output_rows:
        Output row indices of this phase, made adjacent by the output-row
        reorganization.
    filter_rows:
        Consequential kernel row indices: the filter rows that are packed
        next to each other by the filter-row reorganization.  Their count is
        the number of PEs that stay active for this group.
    input_rows:
        For each output row, the starting row in the genuine input that its
        (consequential) window covers.
    column_segments:
        Column-phase segments shared by every row of this group.
    """

    phase: int
    output_rows: Tuple[int, ...]
    filter_rows: Tuple[int, ...]
    input_rows: Tuple[int, ...]
    column_segments: Tuple[ColumnSegment, ...]

    @property
    def active_pes(self) -> int:
        """PEs doing useful work for one output row of this group."""
        return len(self.filter_rows)


@dataclass(frozen=True)
class DataflowSchedule:
    """The complete GANAX dataflow schedule for one (t)conv layer."""

    layer_name: str
    stride_rows: int
    stride_cols: int
    kernel_rows: int
    kernel_cols: int
    output_rows: int
    output_cols: int
    row_groups: Tuple[RowGroup, ...]

    @property
    def num_patterns(self) -> int:
        """Number of distinct row-computation patterns (== vertical stride)."""
        return len(self.row_groups)

    def row_plan(
        self, schedule: ScheduleLike = None
    ) -> Tuple[Tuple[int, RowGroup], ...]:
        """``(output_row, group)`` pairs in the order a schedule lowers them.

        The pairs themselves are fixed by the algorithm — which rows exist
        and which consequential filter rows each carries never changes — but
        a :class:`~repro.schedule.ScheduleSpec`'s ``row_order`` decides the
        walk: ``"grouped"`` (default) follows the reorganized groups phase by
        phase, ``"raster"`` re-sorts by ascending output row across groups.
        """
        spec = resolve_schedule(schedule)
        pairs = [
            (output_row, group)
            for group in self.row_groups
            for output_row in group.output_rows
        ]
        if spec.row_order == "raster":
            pairs.sort(key=lambda pair: pair[0])
        return tuple(pairs)

    def baseline_idle_fraction(self) -> float:
        """Fraction of compute nodes idle under the conventional dataflow.

        In the conventional dataflow every output row occupies ``kernel_rows``
        compute nodes but only ``active_pes`` of them perform consequential
        vector-vector work (Figure 4b's white circles).
        """
        total_nodes = 0
        active_nodes = 0
        for group in self.row_groups:
            total_nodes += len(group.output_rows) * self.kernel_rows
            active_nodes += len(group.output_rows) * group.active_pes
        if total_nodes == 0:
            return 0.0
        return 1.0 - active_nodes / total_nodes


# ----------------------------------------------------------------------
# Schedule construction
# ----------------------------------------------------------------------
def build_schedule(
    binding: LayerBinding, schedule: ScheduleLike = None
) -> DataflowSchedule:
    """Build the GANAX dataflow schedule for a convolutional layer binding.

    Conventional convolutions are handled as the degenerate single-pattern
    case (stride-1 "transposed" structure with every filter row consequential),
    which is how GANAX runs discriminators in pure SIMD mode.

    ``schedule`` names a :class:`~repro.schedule.ScheduleSpec` (spec string,
    instance, or ``None`` for the default).  The group decomposition returned
    here is the *algorithm* half of the separation and is identical for every
    spec; the spec is resolved (so unknown names fail here, before any
    planning) and drives the ordering knobs through
    :meth:`DataflowSchedule.row_plan` and the compiler.
    """
    resolve_schedule(schedule)
    layer = binding.layer
    if isinstance(layer, TransposedConvLayer):
        return _build_tconv_schedule(layer, binding.input_shape)
    if isinstance(layer, ConvLayer):
        return _build_conv_schedule(layer, binding)
    raise DataflowError(f"layer '{binding.name}' is not convolutional")


def _build_tconv_schedule(
    layer: TransposedConvLayer, input_shape: FeatureMapShape
) -> DataflowSchedule:
    if layer.rank not in (2, 3):
        raise DataflowError(
            f"{layer.name}: dataflow schedules support 2-D and 3-D layers"
        )
    # For rank-3 layers the schedule describes one depth slice; the analytical
    # model multiplies by the depth extent and by the depth-phase tap factor.
    row_dim = layer.rank - 2
    col_dim = layer.rank - 1
    out = layer.output_shape(input_shape)

    stride_rows = layer.stride[row_dim]
    stride_cols = layer.stride[col_dim]
    kernel_rows = layer.kernel[row_dim]
    kernel_cols = layer.kernel[col_dim]
    padding_rows = layer.padding[row_dim]
    padding_cols = layer.padding[col_dim]
    out_rows = out.spatial[row_dim]
    out_cols = out.spatial[col_dim]
    in_rows = input_shape.spatial[row_dim]
    in_cols = input_shape.spatial[col_dim]

    groups: List[RowGroup] = []
    for phase in range(min(stride_rows, out_rows)):
        rows = tuple(r for r in range(out_rows) if r % stride_rows == phase)
        if not rows:
            continue
        filter_rows = _consequential_kernel_indices(
            phase, kernel_rows, stride_rows, padding_rows
        )
        if not filter_rows:
            # A phase whose rows touch no genuine input can only happen for
            # degenerate geometries; represent it as a single idle-filter row
            # so downstream consumers never divide by zero.
            filter_rows = (0,)
        input_rows = tuple(
            _input_start(r, kernel_rows, stride_rows, padding_rows, in_rows)
            for r in rows
        )
        segments = _column_segments(
            out_cols, kernel_cols, stride_cols, padding_cols, in_cols
        )
        groups.append(
            RowGroup(
                phase=phase,
                output_rows=rows,
                filter_rows=filter_rows,
                input_rows=input_rows,
                column_segments=segments,
            )
        )
    return DataflowSchedule(
        layer_name=layer.name,
        stride_rows=stride_rows,
        stride_cols=stride_cols,
        kernel_rows=kernel_rows,
        kernel_cols=kernel_cols,
        output_rows=out_rows,
        output_cols=out_cols,
        row_groups=tuple(groups),
    )


def _build_conv_schedule(layer: ConvLayer, binding: LayerBinding) -> DataflowSchedule:
    out = binding.output_shape
    row_dim = layer.rank - 2 if layer.rank >= 2 else 0
    col_dim = layer.rank - 1
    kernel_rows = layer.kernel[row_dim] if layer.rank >= 2 else 1
    kernel_cols = layer.kernel[col_dim]
    out_rows = out.spatial[row_dim] if layer.rank >= 2 else 1
    out_cols = out.spatial[col_dim]

    segment = ColumnSegment(
        phase=0,
        columns=tuple(range(out_cols)),
        taps=kernel_cols,
        input_start_columns=tuple(c * layer.stride[col_dim] for c in range(out_cols)),
        kernel_columns=tuple(range(kernel_cols)),
    )
    group = RowGroup(
        phase=0,
        output_rows=tuple(range(out_rows)),
        filter_rows=tuple(range(kernel_rows)),
        input_rows=tuple(
            r * (layer.stride[row_dim] if layer.rank >= 2 else 1) for r in range(out_rows)
        ),
        column_segments=(segment,),
    )
    return DataflowSchedule(
        layer_name=layer.name,
        stride_rows=1,
        stride_cols=1,
        kernel_rows=kernel_rows,
        kernel_cols=kernel_cols,
        output_rows=out_rows,
        output_cols=out_cols,
        row_groups=(group,),
    )


# ----------------------------------------------------------------------
# Geometry helpers
# ----------------------------------------------------------------------
def _consequential_kernel_indices(
    phase: int, kernel: int, stride: int, padding: int
) -> Tuple[int, ...]:
    """Kernel indices that touch genuine values for outputs of ``phase``."""
    border = kernel - 1 - padding
    return tuple(k for k in range(kernel) if (phase + k - border) % stride == 0)


def _input_start(
    out_index: int, kernel: int, stride: int, padding: int, in_extent: int
) -> int:
    """Starting genuine-input index of the window producing ``out_index``.

    The window of output ``o`` covers expanded coordinates ``o..o+kernel-1``;
    genuine elements live at expanded coordinates ``border + stride * i``.
    The first genuine element inside the window is at genuine index
    ``ceil((o - border) / stride)`` clamped to ``[0, in_extent)``.
    """
    border = kernel - 1 - padding
    first = -(-(out_index - border) // stride)  # ceil division
    return max(0, min(in_extent - 1, first))


def _column_segments(
    out_cols: int, kernel: int, stride: int, padding: int, in_cols: int
) -> Tuple[ColumnSegment, ...]:
    segments: List[ColumnSegment] = []
    for phase in range(min(stride, out_cols)):
        columns = tuple(c for c in range(out_cols) if c % stride == phase)
        if not columns:
            continue
        kernel_columns = _consequential_kernel_indices(phase, kernel, stride, padding)
        starts = tuple(
            _input_start(c, kernel, stride, padding, in_cols) for c in columns
        )
        segments.append(
            ColumnSegment(
                phase=phase,
                columns=columns,
                taps=max(1, len(kernel_columns)),
                input_start_columns=starts,
                kernel_columns=kernel_columns if kernel_columns else (0,),
            )
        )
    return tuple(segments)


# ----------------------------------------------------------------------
# Aggregate queries used by the performance model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleSummary:
    """The aggregate schedule quantities the analytical model consumes.

    The performance estimators never read the materialised per-row and
    per-column tuples of a :class:`DataflowSchedule` — only the total output
    rows, the pattern count and the row-weighted average of consequential
    filter rows.  All three are computable in O(stride x kernel) arithmetic,
    so :func:`schedule_summary` provides them without building the schedule.
    ``tests/test_dataflow.py`` pins the equivalence against
    :func:`build_schedule` / :func:`average_active_filter_rows`.
    """

    output_rows: int
    num_patterns: int
    average_active_filter_rows: float


@lru_cache(maxsize=4096)
def _summarize_row_geometry(
    out_rows: int, kernel_rows: int, stride_rows: int, padding_rows: int
) -> ScheduleSummary:
    rows = 0
    weighted = 0
    patterns = 0
    for phase in range(min(stride_rows, out_rows)):
        count = (out_rows - 1 - phase) // stride_rows + 1
        active = max(
            1,
            len(
                _consequential_kernel_indices(
                    phase, kernel_rows, stride_rows, padding_rows
                )
            ),
        )
        patterns += 1
        rows += count
        weighted += count * active
    average = weighted / rows if rows else 0.0
    return ScheduleSummary(
        output_rows=out_rows,
        num_patterns=patterns,
        average_active_filter_rows=average,
    )


def schedule_summary(binding: LayerBinding) -> ScheduleSummary:
    """Aggregate schedule quantities of a (t)conv binding, without the schedule.

    Equivalent to summarising ``build_schedule(binding)`` but O(stride x
    kernel) instead of O(rows + cols), and memoized on the row geometry —
    every layer sharing an output height / kernel / stride / padding reuses
    one summary.
    """
    layer = binding.layer
    if isinstance(layer, TransposedConvLayer):
        if layer.rank not in (2, 3):
            raise DataflowError(
                f"{layer.name}: dataflow schedules support 2-D and 3-D layers"
            )
        row_dim = layer.rank - 2
        return _summarize_row_geometry(
            binding.output_shape.spatial[row_dim],
            layer.kernel[row_dim],
            layer.stride[row_dim],
            layer.padding[row_dim],
        )
    if isinstance(layer, ConvLayer):
        row_dim = layer.rank - 2 if layer.rank >= 2 else 0
        out_rows = binding.output_shape.spatial[row_dim] if layer.rank >= 2 else 1
        kernel_rows = layer.kernel[row_dim] if layer.rank >= 2 else 1
        # Conventional convolutions are the degenerate single-pattern case:
        # stride-1 structure with every filter row consequential.
        return _summarize_row_geometry(out_rows, kernel_rows, 1, 0)
    raise DataflowError(f"layer '{binding.name}' is not convolutional")


def average_active_filter_rows(schedule: DataflowSchedule) -> float:
    """Row-count weighted average of consequential filter rows per output row."""
    rows = 0
    weighted = 0
    for group in schedule.row_groups:
        rows += len(group.output_rows)
        weighted += len(group.output_rows) * group.active_pes
    if rows == 0:
        return 0.0
    return weighted / rows
