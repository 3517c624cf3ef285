"""Unit tests for layer specifications and their MAC accounting."""

from __future__ import annotations

import pytest

from repro.errors import LayerError, ShapeError
from repro.nn.layers import (
    ActivationLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    ReshapeLayer,
    TransposedConvLayer,
)
from repro.nn.shapes import FeatureMapShape


class TestConvLayer:
    def test_output_shape_dcgan_discriminator(self):
        layer = ConvLayer(name="c1", out_channels=64, kernel=4, stride=2, padding=1)
        out = layer.output_shape(FeatureMapShape.image(3, 64, 64))
        assert out.as_tuple() == (64, 32, 32)

    def test_weight_count(self):
        layer = ConvLayer(name="c1", out_channels=8, kernel=3, stride=1, padding=1)
        assert layer.weight_count(FeatureMapShape.image(4, 8, 8)) == 8 * 4 * 9

    def test_total_macs(self):
        layer = ConvLayer(name="c1", out_channels=2, kernel=3, stride=1, padding=1)
        input_shape = FeatureMapShape.image(3, 4, 4)
        # out 2x4x4, each output element does 3*9 MACs
        assert layer.total_macs(input_shape) == 2 * 16 * 3 * 9

    def test_conv_is_fully_consequential(self):
        layer = ConvLayer(name="c1", out_channels=2, kernel=3, stride=2, padding=1)
        shape = FeatureMapShape.image(3, 8, 8)
        assert layer.consequential_macs(shape) == layer.total_macs(shape)
        assert layer.inconsequential_fraction(shape) == 0.0

    def test_rank3_conv(self):
        layer = ConvLayer(name="c3d", out_channels=4, kernel=4, stride=2, padding=1, rank=3)
        out = layer.output_shape(FeatureMapShape.volume(2, 8, 8, 8))
        assert out.as_tuple() == (4, 4, 4, 4)

    def test_rejects_wrong_rank_input(self):
        layer = ConvLayer(name="c1", out_channels=2, kernel=3, stride=1, padding=1)
        with pytest.raises(ShapeError):
            layer.output_shape(FeatureMapShape.volume(2, 4, 4, 4))

    def test_rejects_bad_out_channels(self):
        with pytest.raises(LayerError):
            ConvLayer(name="c1", out_channels=0, kernel=3, stride=1, padding=0)

    def test_rejects_empty_name(self):
        with pytest.raises(LayerError):
            ConvLayer(name="", out_channels=2, kernel=3, stride=1, padding=0)

    def test_is_convolutional_flags(self):
        layer = ConvLayer(name="c1", out_channels=2, kernel=3, stride=1, padding=0)
        assert layer.is_convolutional
        assert not layer.is_transposed


class TestTransposedConvLayer:
    def test_output_shape_doubles(self):
        layer = TransposedConvLayer(name="t1", out_channels=64, kernel=4, stride=2, padding=1)
        out = layer.output_shape(FeatureMapShape.image(128, 8, 8))
        assert out.as_tuple() == (64, 16, 16)

    def test_output_shape_paper_example(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=5, stride=2, padding=2)
        out = layer.output_shape(FeatureMapShape.image(1, 4, 4))
        assert out.as_tuple() == (1, 7, 7)

    def test_output_padding(self):
        layer = TransposedConvLayer(
            name="t1", out_channels=3, kernel=5, stride=2, padding=2, output_padding=1
        )
        out = layer.output_shape(FeatureMapShape.image(8, 8, 8))
        assert out.spatial == (16, 16)

    def test_zero_inserted_spatial(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=5, stride=2, padding=2)
        assert layer.zero_inserted_spatial(FeatureMapShape.image(1, 4, 4)) == (7, 7)

    def test_expanded_spatial_covers_all_windows(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=5, stride=2, padding=2)
        shape = FeatureMapShape.image(1, 4, 4)
        out = layer.output_shape(shape)
        expanded = layer.expanded_spatial(shape)
        assert expanded == tuple(o + 5 - 1 for o in out.spatial)

    def test_total_macs_counts_dense_window(self):
        layer = TransposedConvLayer(name="t1", out_channels=2, kernel=4, stride=2, padding=1)
        shape = FeatureMapShape.image(3, 4, 4)
        out = layer.output_shape(shape)
        assert layer.total_macs(shape) == out.spatial_size * 2 * 3 * 16

    def test_inconsequential_fraction_stride2_kernel4(self):
        # For kernel 4 / stride 2 every output uses exactly 2x2 of the 4x4
        # taps in the interior, so the inconsequential fraction approaches 75%.
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=4, stride=2, padding=1)
        shape = FeatureMapShape.image(1, 32, 32)
        assert 0.70 < layer.inconsequential_fraction(shape) < 0.76

    def test_inconsequential_fraction_stride1_is_low(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=3, stride=1, padding=1)
        shape = FeatureMapShape.image(1, 16, 16)
        # Stride 1 inserts no zeros; only border effects remain.
        assert layer.inconsequential_fraction(shape) < 0.25

    def test_consequential_taps_along_dim_phases(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=5, stride=2, padding=2)
        shape = FeatureMapShape.image(1, 4, 4)
        taps = layer.consequential_taps_along_dim(shape, 0)
        assert len(taps) == 7
        # Interior rows alternate between 3 and 2 consequential taps.
        assert set(taps[1:-1]) == {2, 3}

    def test_rejects_padding_exceeding_kernel(self):
        with pytest.raises(LayerError):
            TransposedConvLayer(name="t1", out_channels=1, kernel=3, stride=2, padding=3)

    def test_3d_layer_shapes(self):
        layer = TransposedConvLayer(
            name="t3d", out_channels=4, kernel=4, stride=2, padding=1, rank=3
        )
        out = layer.output_shape(FeatureMapShape.volume(8, 4, 4, 4))
        assert out.as_tuple() == (4, 8, 8, 8)

    def test_3d_inconsequential_higher_than_2d(self):
        layer2d = TransposedConvLayer(name="t2", out_channels=1, kernel=4, stride=2, padding=1)
        layer3d = TransposedConvLayer(
            name="t3", out_channels=1, kernel=4, stride=2, padding=1, rank=3
        )
        frac2d = layer2d.inconsequential_fraction(FeatureMapShape.image(1, 8, 8))
        frac3d = layer3d.inconsequential_fraction(FeatureMapShape.volume(1, 8, 8, 8))
        assert frac3d > frac2d

    def test_is_transposed_flag(self):
        layer = TransposedConvLayer(name="t1", out_channels=1, kernel=4, stride=2, padding=1)
        assert layer.is_transposed
        assert layer.is_convolutional


class TestOtherLayers:
    def test_dense_layer(self):
        layer = DenseLayer(name="fc", out_features=10)
        shape = FeatureMapShape.vector(100)
        assert layer.output_shape(shape).num_elements == 10
        assert layer.total_macs(shape) == 1000
        assert layer.weight_count(shape) == 1000

    def test_dense_rejects_zero_features(self):
        with pytest.raises(LayerError):
            DenseLayer(name="fc", out_features=0)

    def test_reshape_layer(self):
        target = FeatureMapShape.image(4, 2, 2)
        layer = ReshapeLayer(name="r", target=target)
        assert layer.output_shape(FeatureMapShape.vector(16)) == target
        assert layer.total_macs(FeatureMapShape.vector(16)) == 0

    def test_reshape_element_mismatch(self):
        layer = ReshapeLayer(name="r", target=FeatureMapShape.image(4, 2, 2))
        with pytest.raises(ShapeError):
            layer.output_shape(FeatureMapShape.vector(15))

    def test_activation_layer_identity_shape(self):
        layer = ActivationLayer(name="a", function="tanh")
        shape = FeatureMapShape.image(3, 8, 8)
        assert layer.output_shape(shape) == shape
        assert layer.weight_count(shape) == 0

    def test_activation_rejects_unknown_function(self):
        with pytest.raises(LayerError):
            ActivationLayer(name="a", function="swish")

    def test_batchnorm_layer(self):
        layer = BatchNormLayer(name="bn")
        shape = FeatureMapShape.image(16, 8, 8)
        assert layer.output_shape(shape) == shape
        assert layer.weight_count(shape) == 32
        assert layer.total_macs(shape) == shape.num_elements
