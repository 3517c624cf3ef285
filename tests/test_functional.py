"""Unit tests for the NumPy functional reference (conv / transposed conv)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import genuine_mask_2d, insert_zeros_nd
from repro.errors import ShapeError
from repro.nn.functional import (
    conv2d,
    conv3d,
    insert_zeros_2d,
    leaky_relu,
    relu,
    sigmoid,
    tanh,
    transposed_conv2d,
    transposed_conv2d_via_zero_insertion,
    transposed_conv3d,
)
from repro.nn.layers import (
    ActivationLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    ReshapeLayer,
    TransposedConvLayer,
)
from repro.nn.shapes import FeatureMapShape
from repro.workloads import get_workload, workload_names


class TestZeroInsertion:
    def test_insert_zeros_2d_shape(self, rng):
        x = rng.standard_normal((2, 4, 4))
        out = insert_zeros_2d(x, 2)
        assert out.shape == (2, 7, 7)

    def test_insert_zeros_2d_preserves_values(self, rng):
        x = rng.standard_normal((1, 3, 3))
        out = insert_zeros_2d(x, 2)
        assert np.allclose(out[:, ::2, ::2], x)

    def test_insert_zeros_2d_inserted_positions_are_zero(self, rng):
        x = rng.standard_normal((1, 3, 3)) + 10.0
        out = insert_zeros_2d(x, 2)
        assert np.all(out[:, 1::2, :] == 0)
        assert np.all(out[:, :, 1::2] == 0)

    def test_insert_zeros_2d_stride1_is_identity(self, rng):
        x = rng.standard_normal((3, 5, 5))
        assert np.array_equal(insert_zeros_2d(x, 1), x)

    def test_insert_zeros_2d_anisotropic(self, rng):
        x = rng.standard_normal((1, 3, 4))
        out = insert_zeros_2d(x, (2, 3))
        assert out.shape == (1, 5, 10)

    def test_insert_zeros_2d_rejects_bad_rank(self, rng):
        with pytest.raises(ShapeError):
            insert_zeros_2d(rng.standard_normal((4, 4)), 2)

    def test_insert_zeros_nd_3d(self, rng):
        x = rng.standard_normal((2, 3, 3, 3))
        out = insert_zeros_nd(x, (2, 2, 2))
        assert out.shape == (2, 5, 5, 5)
        assert np.allclose(out[:, ::2, ::2, ::2], x)

    def test_insert_zeros_nd_rejects_rank_mismatch(self, rng):
        with pytest.raises(ShapeError):
            insert_zeros_nd(rng.standard_normal((2, 3, 3)), (2, 2, 2))

    def test_genuine_mask_counts(self):
        mask = genuine_mask_2d((4, 4), stride=2, kernel=5, padding=2)
        # Exactly the 16 genuine positions are marked.
        assert mask.sum() == 16

    def test_genuine_mask_matches_zero_count(self, rng):
        # Count of consequential MACs via mask equals direct enumeration.
        mask = genuine_mask_2d((4, 4), stride=2, kernel=5, padding=2)
        total = 0
        for oy in range(7):
            for ox in range(7):
                total += int(mask[oy : oy + 5, ox : ox + 5].sum())
        assert total > 0
        assert total < 7 * 7 * 25


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, w, stride=1, padding=1)
        assert np.allclose(out, x)

    def test_output_shape_stride2(self, rng):
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((4, 3, 4, 4))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (4, 4, 4)

    def test_averaging_kernel(self):
        x = np.ones((1, 4, 4))
        w = np.full((1, 1, 2, 2), 0.25)
        out = conv2d(x, w, stride=2, padding=0)
        assert np.allclose(out, 1.0)

    def test_linearity(self, rng):
        x1 = rng.standard_normal((2, 6, 6))
        x2 = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        lhs = conv2d(x1 + x2, w, padding=1)
        rhs = conv2d(x1, w, padding=1) + conv2d(x2, w, padding=1)
        assert np.allclose(lhs, rhs)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(rng.standard_normal((2, 4, 4)), rng.standard_normal((1, 3, 3, 3)))

    def test_kernel_too_large_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 1, 5, 5)))


class TestTransposedConv2d:
    def test_output_shape(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 3, 4, 4))
        out = transposed_conv2d(x, w, stride=2, padding=1)
        assert out.shape == (3, 8, 8)

    def test_matches_zero_insertion_formulation(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 3, 5, 5))
        direct = transposed_conv2d(x, w, stride=2, padding=2)
        via_zeros = transposed_conv2d_via_zero_insertion(x, w, stride=2, padding=2)
        assert np.allclose(direct, via_zeros)

    def test_matches_zero_insertion_stride3(self, rng):
        x = rng.standard_normal((1, 3, 3))
        w = rng.standard_normal((1, 2, 4, 4))
        direct = transposed_conv2d(x, w, stride=3, padding=1)
        via_zeros = transposed_conv2d_via_zero_insertion(x, w, stride=3, padding=1)
        assert np.allclose(direct, via_zeros)

    def test_adjoint_of_convolution(self, rng):
        """Transposed convolution is the adjoint of convolution:
        <conv(x), y> == <x, tconv(y)> for matching geometries."""
        c_in, c_out = 2, 3
        x = rng.standard_normal((c_in, 8, 8))
        w = rng.standard_normal((c_out, c_in, 4, 4))
        y = rng.standard_normal((c_out, 4, 4))
        conv_out = conv2d(x, w, stride=2, padding=1)
        lhs = float(np.sum(conv_out * y))
        # The conv weight (M, C, kH, kW) is read by the transposed convolution
        # as (C_in=M, C_out=C, kH, kW): applying it to y lands back in x-space.
        tconv_out = transposed_conv2d(y, w, stride=2, padding=1)
        rhs = float(np.sum(x * tconv_out))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_single_pixel_scatter(self):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 1.0
        w = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = transposed_conv2d(x, w, stride=2, padding=1)
        # The single non-zero input scatters a copy of the kernel (clipped by
        # padding) centred at output position (2, 2).
        assert out.shape == (1, 5, 5)
        assert out[0, 2, 2] == w[0, 0, 1, 1]

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            transposed_conv2d(rng.standard_normal((2, 4, 4)), rng.standard_normal((3, 1, 3, 3)))


class TestConv3d:
    def test_output_shape(self, rng):
        x = rng.standard_normal((2, 8, 8, 8))
        w = rng.standard_normal((4, 2, 4, 4, 4))
        out = conv3d(x, w, stride=2, padding=1)
        assert out.shape == (4, 4, 4, 4)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 4, 4, 4))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        assert np.allclose(conv3d(x, w, stride=1, padding=1), x)

    def test_transposed_conv3d_shape(self, rng):
        x = rng.standard_normal((2, 4, 4, 4))
        w = rng.standard_normal((2, 1, 4, 4, 4))
        out = transposed_conv3d(x, w, stride=2, padding=1)
        assert out.shape == (1, 8, 8, 8)
        # output_padding reaches the shape a rank-3 layer declares for it
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=4, stride=2, padding=1,
            output_padding=1, rank=3,
        )
        declared = layer.output_shape(FeatureMapShape(1, (4, 4, 4)))
        out = transposed_conv3d(x[:1], w[:1], stride=2, padding=1, output_padding=1)
        assert out.shape == (declared.channels, *declared.spatial) == (1, 9, 9, 9)

    def test_transposed_conv3d_adjoint(self, rng):
        x = rng.standard_normal((1, 4, 4, 4))
        w = rng.standard_normal((2, 1, 4, 4, 4))
        y = rng.standard_normal((2, 2, 2, 2))
        conv_out = conv3d(x, w, stride=2, padding=1)
        lhs = float(np.sum(conv_out * y))
        tconv_out = transposed_conv3d(y, w, stride=2, padding=1)
        rhs = float(np.sum(x * tconv_out))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        out = leaky_relu(np.array([-1.0, 2.0]), negative_slope=0.2)
        assert out[0] == pytest.approx(-0.2)
        assert out[1] == pytest.approx(2.0)

    def test_tanh_bounds(self, rng):
        out = tanh(rng.standard_normal(100) * 10)
        assert np.all(np.abs(out) <= 1.0)

    def test_sigmoid_bounds(self, rng):
        out = sigmoid(rng.standard_normal(100) * 10)
        assert np.all((out > 0) & (out < 1))


_ACTIVATIONS = {"relu": relu, "leaky_relu": leaky_relu, "tanh": tanh, "sigmoid": sigmoid}


def _run_layer(binding, x: np.ndarray) -> np.ndarray:
    """Run one binding numerically; (t)convs on one input and one output channel."""
    layer = binding.layer
    if isinstance(layer, ConvLayer):
        op = conv2d if layer.rank == 2 else conv3d
        weight = np.ones((1, 1, *layer.kernel))
        return op(x[:1], weight, stride=layer.stride, padding=layer.padding)
    if isinstance(layer, TransposedConvLayer):
        weight = np.ones((1, 1, *layer.kernel))
        if layer.rank == 2:
            return transposed_conv2d(
                x[:1],
                weight,
                stride=layer.stride,
                padding=layer.padding,
                output_padding=layer.output_padding,
            )
        return transposed_conv3d(
            x[:1],
            weight,
            stride=layer.stride,
            padding=layer.padding,
            output_padding=layer.output_padding,
        )
    if isinstance(layer, DenseLayer):
        # Broadcast the one carried channel back to the full input volume.
        flat = np.broadcast_to(x[:1], binding.input_shape.as_tuple()).reshape(-1)
        weight = np.broadcast_to(1.0, (layer.out_features, flat.size))
        return (weight @ flat).reshape(layer.out_features, 1)
    if isinstance(layer, ReshapeLayer):
        return x.reshape(layer.target.as_tuple())
    if isinstance(layer, ActivationLayer):
        return _ACTIVATIONS[layer.function](x)
    if isinstance(layer, BatchNormLayer):
        return x
    raise AssertionError(f"{binding.name}: no numerical step for {type(layer).__name__}")


def _shape_chain_networks():
    for name in workload_names():
        model = get_workload(name)
        yield pytest.param(model.generator, id=f"{name}-generator")
        yield pytest.param(model.discriminator, id=f"{name}-discriminator")


class TestWorkloadShapeChains:
    """Every workload's shape chain runs numerically, layer by layer."""

    @pytest.mark.parametrize("network", _shape_chain_networks())
    def test_spatial_outputs_match_bindings(self, network):
        x = np.ones(network.input_shape.as_tuple())
        for binding in network.bindings:
            x = _run_layer(binding, x)
            assert x.shape[1:] == binding.output_shape.spatial, binding.name
            if isinstance(binding.layer, (DenseLayer, ReshapeLayer)):
                assert x.shape == binding.output_shape.as_tuple(), binding.name
        assert np.isfinite(x).all()


def _paper_generators(rank=None):
    for name in workload_names():
        generator = get_workload(name).generator
        ranks = {b.layer.rank for b in generator.bindings if b.layer.is_transposed}
        if rank is None or rank in ranks:
            yield pytest.param(generator, id=name)


def _tconv_bindings(network):
    return [b for b in network.bindings if b.layer.is_transposed]


class TestPaperTransposedConvs:
    """The paper generators' transposed convolutions at their real geometry."""

    @pytest.mark.parametrize("network", _paper_generators())
    def test_genuine_taps_equal_consequential_macs(self, network):
        # With an all-ones input and kernel, every output sums exactly the
        # taps that land on a genuine (non-inserted) input value.
        for binding in _tconv_bindings(network):
            layer = binding.layer
            x = np.ones((1, *binding.input_shape.spatial))
            weight = np.ones((1, 1, *layer.kernel))
            if layer.rank == 2:
                out = transposed_conv2d(
                    x,
                    weight,
                    stride=layer.stride,
                    padding=layer.padding,
                    output_padding=layer.output_padding,
                )
            else:
                out = transposed_conv3d(
                    x,
                    weight,
                    stride=layer.stride,
                    padding=layer.padding,
                    output_padding=layer.output_padding,
                )
            channel_pairs = binding.input_shape.channels * layer.out_channels
            genuine_taps = int(out.sum()) * channel_pairs
            assert genuine_taps == layer.consequential_macs(binding.input_shape), binding.name

    @pytest.mark.parametrize("network", _paper_generators(rank=2))
    def test_direct_matches_zero_insertion(self, network, rng):
        for binding in _tconv_bindings(network):
            layer = binding.layer
            x = rng.standard_normal((1, *binding.input_shape.spatial))
            weight = rng.standard_normal((1, 1, *layer.kernel))
            geometry = dict(
                stride=layer.stride, padding=layer.padding, output_padding=layer.output_padding
            )
            direct = transposed_conv2d(x, weight, **geometry)
            via_zeros = transposed_conv2d_via_zero_insertion(x, weight, **geometry)
            assert direct.shape[1:] == binding.output_shape.spatial, binding.name
            assert np.allclose(direct, via_zeros), binding.name
