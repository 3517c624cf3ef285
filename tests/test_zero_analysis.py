"""Cross-checks of the consequential structure of transposed convolutions:
the exact MAC counts, and the row patterns ``build_schedule`` groups output
rows by, each against the genuine-value mask of the zero-inserted input.

The paper running example's patterns are pinned in ``tests/test_dataflow.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import count_consequential_macs_bruteforce, count_consequential_macs_gemm
from repro.core.dataflow import build_schedule
from repro.nn.layers import TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.workloads import get_workload, workload_names


#: Square 2-D geometries ``(kernel, stride, padding, size)`` every count is
#: pinned on.
GEOMETRIES_2D = [
    (5, 2, 2, 4),
    (4, 2, 1, 4),
    (4, 2, 1, 6),
    (3, 1, 1, 5),
    (6, 3, 2, 3),
    (5, 2, 1, 5),
]


class TestBruteForceCrossCheck:
    @pytest.mark.parametrize("kernel,stride,padding,size", GEOMETRIES_2D)
    def test_exact_count_matches_bruteforce_2d(self, kernel, stride, padding, size):
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(3, size, size)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )

    def test_exact_count_matches_bruteforce_3d(self):
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=4, stride=2, padding=1, rank=3
        )
        shape = FeatureMapShape.volume(1, 3, 3, 3)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )

    def test_exact_count_matches_bruteforce_anisotropic(self):
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=(5, 3), stride=(2, 1), padding=(2, 1)
        )
        shape = FeatureMapShape.image(1, 4, 6)
        assert layer.consequential_macs(shape) == count_consequential_macs_bruteforce(
            layer, shape
        )


class TestImplicitGemmCrossCheck:
    @pytest.mark.parametrize("kernel,stride,padding,size", GEOMETRIES_2D)
    def test_gemm_count_matches_bruteforce_2d(self, kernel, stride, padding, size):
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(3, size, size)
        assert count_consequential_macs_gemm(layer, shape) == (
            count_consequential_macs_bruteforce(layer, shape)
        )

    def test_gemm_count_matches_bruteforce_3d(self):
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=(4, 3, 5), stride=(2, 1, 3), padding=(1, 1, 2),
            rank=3,
        )
        shape = FeatureMapShape.volume(3, 3, 4, 2)
        assert count_consequential_macs_gemm(layer, shape) == (
            count_consequential_macs_bruteforce(layer, shape)
        )

    def test_gemm_count_matches_bruteforce_anisotropic(self):
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=(5, 3), stride=(2, 1), padding=(2, 1)
        )
        shape = FeatureMapShape.image(1, 4, 6)
        assert count_consequential_macs_gemm(layer, shape) == (
            count_consequential_macs_bruteforce(layer, shape)
        )

    @pytest.mark.parametrize("model_name", workload_names())
    def test_gemm_count_matches_every_paper_tconv(self, model_name):
        model = get_workload(model_name)
        tconvs = [
            binding
            for network in (model.generator, model.discriminator)
            for binding in network.bindings
            if isinstance(binding.layer, TransposedConvLayer)
        ]
        assert tconvs
        for binding in tconvs:
            assert binding.consequential_macs == count_consequential_macs_gemm(
                binding.layer, binding.input_shape
            ), binding.name


def _genuine_positions(layer, input_shape, dim):
    """Which positions along ``dim`` of the expanded input hold a genuine
    value, built as ``oracles.count_consequential_macs_bruteforce`` builds
    its mask."""
    extent = layer.expanded_spatial(input_shape)[dim]
    border = layer.kernel[dim] - 1 - layer.padding[dim]
    coords = border + layer.stride[dim] * np.arange(input_shape.spatial[dim])
    genuine = np.zeros(extent, dtype=bool)
    genuine[coords[(coords >= 0) & (coords < extent)]] = True
    return genuine


def _hits(genuine, start, taps):
    """The taps of a window starting at ``start`` that meet a genuine value."""
    return {k for k in taps if genuine[start + k]}


def _schedule_macs(binding):
    """Consequential MACs counted off the schedule's row groups: every output
    row and column counts the filter rows / kernel columns its pattern carries
    that meet a genuine value; a 3-D layer repeats the slice over depth.

    Asserts on the way that no window meets a genuine value through a filter
    row or kernel column its pattern dropped, and that every filter row a
    pattern carries is met by some row of its group.
    """
    layer, shape = binding.layer, binding.input_shape
    row_dim, col_dim = layer.rank - 2, layer.rank - 1
    rows = _genuine_positions(layer, shape, row_dim)
    cols = _genuine_positions(layer, shape, col_dim)
    all_rows = range(layer.kernel[row_dim])
    all_cols = range(layer.kernel[col_dim])

    row_taps = 0
    for group in build_schedule(binding).row_groups:
        used = set()
        for output_row in group.output_rows:
            hit = _hits(rows, output_row, all_rows)
            assert hit <= set(group.filter_rows), (binding.name, output_row)
            used |= hit
            row_taps += len(hit)
        # A phase that meets no genuine row keeps one idle filter row.
        assert group.filter_rows == (tuple(sorted(used)) or (0,)), binding.name
    col_taps = 0
    for segment in build_schedule(binding).row_groups[0].column_segments:
        for column in segment.columns:
            hit = _hits(cols, column, all_cols)
            assert hit <= set(segment.kernel_columns), (binding.name, column)
            col_taps += len(hit)
    depth_taps = 1
    if layer.rank == 3:
        depth = _genuine_positions(layer, shape, 0)
        depth_taps = sum(
            len(_hits(depth, d, range(layer.kernel[0])))
            for d in range(binding.output_shape.spatial[0])
        )
    channels = binding.output_shape.channels * shape.channels
    return row_taps * col_taps * depth_taps * channels


def _bind(layer, shape):
    return LayerBinding(
        index=0, layer=layer, input_shape=shape, output_shape=layer.output_shape(shape)
    )


class TestRowPatterns:
    """``build_schedule``'s row patterns carry exactly the consequential filter
    rows: together they account for every consequential MAC and no other."""

    @pytest.mark.parametrize("kernel,stride,padding,size", GEOMETRIES_2D)
    def test_patterns_count_every_consequential_mac(self, kernel, stride, padding, size):
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(3, size, size)
        assert _schedule_macs(_bind(layer, shape)) == (
            count_consequential_macs_bruteforce(layer, shape)
        )

    @pytest.mark.parametrize("model_name", workload_names())
    def test_patterns_of_every_paper_tconv(self, model_name):
        model = get_workload(model_name)
        tconvs = [
            binding
            for network in (model.generator, model.discriminator)
            for binding in network.bindings
            if isinstance(binding.layer, TransposedConvLayer)
        ]
        assert tconvs
        for binding in tconvs:
            layer = binding.layer
            row_dim = layer.rank - 2
            out_rows = binding.output_shape.spatial[row_dim]
            schedule = build_schedule(binding)
            assert schedule.num_patterns == min(layer.stride[row_dim], out_rows)
            covered = sorted(r for g in schedule.row_groups for r in g.output_rows)
            assert covered == list(range(out_rows)), binding.name
            assert _schedule_macs(binding) == binding.consequential_macs, binding.name
