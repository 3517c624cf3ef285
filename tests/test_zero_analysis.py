"""Unit tests for the structural zero / pattern analysis."""

from __future__ import annotations

import pytest

from oracles import count_consequential_macs_bruteforce, count_consequential_macs_gemm
from repro.errors import LayerError
from repro.nn.layers import ConvLayer, TransposedConvLayer
from repro.nn.shapes import FeatureMapShape
from repro.nn.zero_analysis import analyze_transposed_conv
from repro.workloads import get_workload, workload_names


class TestAnalyzeTransposedConv:
    def test_paper_example_two_patterns(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        # Section II: "there are only two distinct patterns in the output row
        # computations" for the stride-2 example.
        assert analysis.num_patterns == 2

    def test_paper_example_filter_rows_per_pattern(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        rows_used = sorted(p.filter_rows_used for p in analysis.row_patterns)
        # Even rows use 3 filter rows (1st/3rd/5th), odd rows use 2 (2nd/4th),
        # matching the accumulation-depth reduction from 5 to 2-3 cycles.
        assert rows_used == [2, 3]

    def test_paper_example_pattern_contents(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        patterns = {p.phase: p.consequential_filter_rows for p in analysis.row_patterns}
        assert patterns[0] == (0, 2, 4)
        assert patterns[1] == (1, 3)

    def test_consequential_fraction_matches_layer(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        assert analysis.consequential_macs == example_tconv_layer.consequential_macs(
            example_tconv_input
        )
        assert analysis.total_macs == example_tconv_layer.total_macs(example_tconv_input)

    def test_rows_per_pattern_cover_all_rows(self, example_tconv_layer, example_tconv_input):
        analysis = analyze_transposed_conv(example_tconv_layer, example_tconv_input)
        assert sum(analysis.rows_per_pattern) == analysis.output_shape.spatial[0]

    def test_stride1_single_pattern(self):
        layer = TransposedConvLayer(name="t", out_channels=1, kernel=3, stride=1, padding=1)
        analysis = analyze_transposed_conv(layer, FeatureMapShape.image(1, 8, 8))
        assert analysis.num_patterns == 1
        assert analysis.row_patterns[0].filter_rows_used == 3

    def test_stride3_three_patterns(self):
        layer = TransposedConvLayer(name="t", out_channels=1, kernel=6, stride=3, padding=2)
        analysis = analyze_transposed_conv(layer, FeatureMapShape.image(1, 5, 5))
        assert analysis.num_patterns == 3

    def test_rejects_conv_layer(self):
        layer = ConvLayer(name="c", out_channels=1, kernel=3, stride=1, padding=1)
        with pytest.raises(LayerError):
            analyze_transposed_conv(layer, FeatureMapShape.image(1, 8, 8))


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
