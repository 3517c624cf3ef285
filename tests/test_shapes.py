"""Unit tests for feature-map shapes and convolution shape arithmetic."""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.nn.shapes import (
    FeatureMapShape,
    conv_output_extent,
    transposed_conv_output_extent,
    zero_inserted_extent,
)


class TestFeatureMapShape:
    def test_image_constructor(self):
        shape = FeatureMapShape.image(3, 64, 32)
        assert shape.channels == 3
        assert shape.spatial == (64, 32)
        assert shape.rank == 2
        assert shape.height == 64
        assert shape.width == 32

    def test_volume_constructor(self):
        shape = FeatureMapShape.volume(16, 4, 8, 12)
        assert shape.rank == 3
        assert shape.spatial == (4, 8, 12)
        assert shape.width == 12
        assert shape.height == 8

    def test_vector_constructor(self):
        shape = FeatureMapShape.vector(100)
        assert shape.channels == 100
        assert shape.spatial == (1,)
        assert shape.num_elements == 100

    def test_num_elements(self):
        shape = FeatureMapShape.image(3, 64, 64)
        assert shape.spatial_size == 64 * 64
        assert shape.num_elements == 3 * 64 * 64

    def test_as_tuple(self):
        assert FeatureMapShape.image(2, 3, 4).as_tuple() == (2, 3, 4)

    def test_rejects_zero_channels(self):
        with pytest.raises(ShapeError):
            FeatureMapShape(channels=0, spatial=(4, 4))

    def test_rejects_negative_spatial(self):
        with pytest.raises(ShapeError):
            FeatureMapShape(channels=1, spatial=(4, -1))

    def test_rejects_empty_spatial(self):
        with pytest.raises(ShapeError):
            FeatureMapShape(channels=1, spatial=())

    def test_height_of_vector_raises(self):
        with pytest.raises(ShapeError):
            _ = FeatureMapShape.vector(10).height


class TestConvExtents:
    def test_basic_conv_extent(self):
        # 64 input, kernel 4, stride 2, padding 1 -> 32
        assert conv_output_extent(64, 4, 2, 1) == 32

    def test_unit_stride_same_padding(self):
        assert conv_output_extent(16, 3, 1, 1) == 16

    def test_conv_extent_no_padding(self):
        assert conv_output_extent(7, 3, 1, 0) == 5

    def test_conv_extent_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv_output_extent(2, 5, 1, 0)

    def test_conv_extent_invalid_stride(self):
        with pytest.raises(ShapeError):
            conv_output_extent(8, 3, 0, 0)

    def test_tconv_extent_doubles_resolution(self):
        # The DCGAN geometry: kernel 4, stride 2, padding 1 doubles the size.
        assert transposed_conv_output_extent(8, 4, 2, 1) == 16

    def test_tconv_extent_paper_example(self):
        # 4x4 input, 5x5 kernel, stride 2, padding 2 -> 7x7 output.
        assert transposed_conv_output_extent(4, 5, 2, 2) == 7

    def test_tconv_extent_output_padding(self):
        assert transposed_conv_output_extent(4, 5, 2, 2, output_padding=1) == 8

    def test_tconv_extent_stride_one_kernel3(self):
        assert transposed_conv_output_extent(16, 3, 1, 1) == 16

    def test_tconv_extent_rejects_negative_padding(self):
        with pytest.raises(ShapeError):
            transposed_conv_output_extent(4, 5, 2, -1)

    def test_tconv_inverts_conv(self):
        # Transposed conv with the same geometry maps the conv output size
        # back to the conv input size (for exact geometries).
        in_extent = 32
        out = conv_output_extent(in_extent, 4, 2, 1)
        assert transposed_conv_output_extent(out, 4, 2, 1) == in_extent

    def test_zero_inserted_extent(self):
        assert zero_inserted_extent(4, 2) == 7
        assert zero_inserted_extent(4, 1) == 4
        assert zero_inserted_extent(1, 3) == 1

    def test_zero_inserted_extent_invalid(self):
        with pytest.raises(ShapeError):
            zero_inserted_extent(0, 2)
