"""Unit tests for the EYERISS and GANAX analytical performance models."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.accelerators.registry import get_accelerator
from repro.baseline.performance import (
    estimate_layer as eyeriss_estimate,
    estimate_network as eyeriss_estimate_network,
    gbuf_input_tiles,
)
from repro.baseline.row_stationary import map_layer, mapping_utilization, spatial_rows_cols
from repro.config import ArchitectureConfig
from repro.core.performance import (
    estimate_layer as ganax_estimate,
    estimate_network as ganax_estimate_network,
)
from repro.errors import DataflowError
from repro.nn.layers import ActivationLayer, ConvLayer, DenseLayer, TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import build_synthetic

ACCELERATORS = ("eyeriss", "ganax", "ganax-noskip", "ideal")


def _bind(layer, input_shape):
    return LayerBinding(
        index=0,
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
    )


class TestRowStationaryMapping:
    def test_mapping_fits_small_layer(self, conv_binding, paper_config):
        mapping = map_layer(conv_binding, paper_config)
        assert mapping.filter_rows == 4
        assert 0.0 < mapping.occupancy <= 1.0
        assert mapping.sets_per_pass >= 1

    def test_mapping_occupancy_bounds(self, dcgan_like_tconv_binding, paper_config):
        assert 0.0 < mapping_utilization(dcgan_like_tconv_binding, paper_config) <= 1.0

    def test_spatial_rows_cols_2d(self, conv_binding):
        rows, cols, out_rows, out_cols = spatial_rows_cols(conv_binding)
        assert (rows, cols) == (4, 4)
        assert (out_rows, out_cols) == (8, 8)

    def test_spatial_rows_cols_3d_folds_depth(self):
        layer = ConvLayer(name="c3", out_channels=2, kernel=3, stride=1, padding=1, rank=3)
        binding = _bind(layer, FeatureMapShape.volume(1, 4, 6, 8))
        rows, cols, out_rows, out_cols = spatial_rows_cols(binding)
        assert rows == 3
        assert out_rows == 4 * 6
        assert out_cols == 8

    def test_non_convolutional_rejected(self, paper_config):
        layer = ActivationLayer(name="a", function="relu")
        binding = LayerBinding(
            index=0, layer=layer,
            input_shape=FeatureMapShape.image(1, 4, 4),
            output_shape=FeatureMapShape.image(1, 4, 4),
        )
        with pytest.raises(DataflowError):
            map_layer(binding, paper_config)

    def test_large_output_folds(self, paper_config):
        layer = ConvLayer(name="big", out_channels=4, kernel=3, stride=1, padding=1)
        binding = _bind(layer, FeatureMapShape.image(4, 128, 128))
        mapping = map_layer(binding, paper_config)
        assert mapping.folds > 1


class TestGbufTiling:
    def test_small_working_set_single_tile(self, paper_config):
        assert gbuf_input_tiles(1000, paper_config) == 1

    def test_large_working_set_multiple_tiles(self, paper_config):
        gbuf_words = paper_config.global_data_buffer_bytes // paper_config.data_bytes
        assert gbuf_input_tiles(gbuf_words * 2, paper_config) >= 4

    def test_monotone_in_working_set(self, paper_config):
        tiles = [gbuf_input_tiles(n, paper_config) for n in (10, 10_000, 100_000, 1_000_000)]
        assert tiles == sorted(tiles)


class TestEyerissEstimates:
    def test_conv_layer_cycles_close_to_dense_bound(self, conv_binding, paper_config):
        estimate = eyeriss_estimate(conv_binding, paper_config)
        dense_bound = conv_binding.total_macs / paper_config.num_pes
        assert estimate.cycles >= dense_bound
        assert estimate.compute_cycles >= dense_bound

    def test_tconv_layer_spends_cycles_on_zeros(self, dcgan_like_tconv_binding, paper_config):
        estimate = eyeriss_estimate(dcgan_like_tconv_binding, paper_config)
        assert estimate.counters.gated_ops > 0
        assert estimate.counters.mac_ops == dcgan_like_tconv_binding.consequential_macs
        assert (
            estimate.counters.mac_ops + estimate.counters.gated_ops
            == dcgan_like_tconv_binding.total_macs
        )

    def test_tconv_streams_expanded_input(self, dcgan_like_tconv_binding, paper_config):
        estimate = eyeriss_estimate(dcgan_like_tconv_binding, paper_config)
        genuine = dcgan_like_tconv_binding.input_shape.num_elements
        # DRAM reads include the zero-inserted input, which is larger than the
        # genuine input, plus the weights.
        assert estimate.counters.dram_reads > genuine + dcgan_like_tconv_binding.weight_count

    def test_conv_layer_has_no_gated_ops(self, conv_binding, paper_config):
        estimate = eyeriss_estimate(conv_binding, paper_config)
        assert estimate.counters.gated_ops == 0

    def test_dense_layer_streaming_estimate(self, paper_config):
        layer = DenseLayer(name="fc", out_features=64)
        binding = _bind(layer, FeatureMapShape.vector(128))
        estimate = eyeriss_estimate(binding, paper_config)
        assert estimate.cycles > 0
        assert estimate.counters.mac_ops == 128 * 64

    def test_activation_layer_estimate(self, paper_config):
        layer = ActivationLayer(name="act", function="relu")
        binding = LayerBinding(
            index=0, layer=layer,
            input_shape=FeatureMapShape.image(4, 8, 8),
            output_shape=FeatureMapShape.image(4, 8, 8),
        )
        estimate = eyeriss_estimate(binding, paper_config)
        assert estimate.cycles >= 1
        assert estimate.counters.mac_ops == 0

    def test_total_pe_cycles_consistency(self, conv_binding, paper_config):
        estimate = eyeriss_estimate(conv_binding, paper_config)
        assert estimate.total_pe_cycles == estimate.cycles * paper_config.num_pes
        assert estimate.active_pe_cycles <= estimate.total_pe_cycles


class TestGanaxEstimates:
    def test_conv_layers_match_baseline(self, conv_binding, paper_config):
        """GANAX runs conventional convolutions at exactly baseline cost."""
        baseline = eyeriss_estimate(conv_binding, paper_config)
        ganax = ganax_estimate(conv_binding, paper_config)
        assert ganax.cycles == baseline.cycles
        assert ganax.counters.as_dict() == baseline.counters.as_dict()
        assert ganax.mode == "simd"

    def test_tconv_layers_skip_zeros(self, dcgan_like_tconv_binding, paper_config):
        baseline = eyeriss_estimate(dcgan_like_tconv_binding, paper_config)
        ganax = ganax_estimate(dcgan_like_tconv_binding, paper_config)
        assert ganax.mode == "mimd-simd"
        assert ganax.cycles < baseline.cycles
        assert ganax.counters.gated_ops == 0
        assert ganax.counters.mac_ops == dcgan_like_tconv_binding.consequential_macs

    def test_tconv_dram_traffic_smaller_than_baseline(self, dcgan_like_tconv_binding, paper_config):
        baseline = eyeriss_estimate(dcgan_like_tconv_binding, paper_config)
        ganax = ganax_estimate(dcgan_like_tconv_binding, paper_config)
        assert ganax.counters.dram_accesses < baseline.counters.dram_accesses

    def test_speedup_close_to_zero_fraction_bound(self, paper_config):
        """For a large stride-2 layer, the speedup approaches the dense/
        consequential MAC ratio (roughly 4x), reduced by overheads."""
        layer = TransposedConvLayer(name="t", out_channels=32, kernel=4, stride=2, padding=1)
        binding = _bind(layer, FeatureMapShape.image(64, 16, 16))
        baseline = eyeriss_estimate(binding, paper_config)
        ganax = ganax_estimate(binding, paper_config)
        speedup = baseline.cycles / ganax.cycles
        ratio = binding.total_macs / binding.consequential_macs
        assert 0.5 * ratio <= speedup <= 1.3 * ratio

    def test_stride1_tconv_no_large_speedup(self, paper_config):
        layer = TransposedConvLayer(name="t", out_channels=16, kernel=3, stride=1, padding=1)
        binding = _bind(layer, FeatureMapShape.image(16, 32, 32))
        baseline = eyeriss_estimate(binding, paper_config)
        ganax = ganax_estimate(binding, paper_config)
        assert baseline.cycles / ganax.cycles < 1.8

    def test_3d_tconv_higher_speedup_than_2d(self, paper_config):
        layer2d = TransposedConvLayer(name="t2", out_channels=8, kernel=4, stride=2, padding=1)
        layer3d = TransposedConvLayer(
            name="t3", out_channels=8, kernel=4, stride=2, padding=1, rank=3
        )
        b2d = _bind(layer2d, FeatureMapShape.image(16, 8, 8))
        b3d = _bind(layer3d, FeatureMapShape.volume(16, 8, 8, 8))
        speedup_2d = eyeriss_estimate(b2d, paper_config).cycles / ganax_estimate(b2d, paper_config).cycles
        speedup_3d = eyeriss_estimate(b3d, paper_config).cycles / ganax_estimate(b3d, paper_config).cycles
        assert speedup_3d > speedup_2d

    def test_dispatch_overhead_scales_with_config(self, dcgan_like_tconv_binding, paper_config):
        cheap = ganax_estimate(dcgan_like_tconv_binding, paper_config)
        expensive = ganax_estimate(
            dcgan_like_tconv_binding,
            paper_config.with_updates(mimd_dispatch_overhead_cycles=64),
        )
        assert expensive.dispatch_cycles > cheap.dispatch_cycles

    def test_utilization_cap_slows_ganax(self, dcgan_like_tconv_binding, paper_config):
        fast = ganax_estimate(dcgan_like_tconv_binding, paper_config)
        slow = ganax_estimate(
            dcgan_like_tconv_binding,
            paper_config.with_updates(ganax_target_utilization=0.25),
        )
        assert slow.cycles > fast.cycles

    def test_uop_fetches_counted(self, dcgan_like_tconv_binding, paper_config):
        estimate = ganax_estimate(dcgan_like_tconv_binding, paper_config)
        assert estimate.counters.uop_fetches > 0
        assert estimate.counters.index_generations == 3 * estimate.counters.mac_ops


def _networks(model):
    return (model.generator, model.discriminator)


class TestSimulatorParity:
    """The batch entry point ``simulate_layers`` equals the per-layer loop."""

    @pytest.mark.parametrize("accelerator", ACCELERATORS)
    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_simulate_layers_matches_per_layer_loop(
        self, accelerator, model_name, paper_config
    ):
        simulator = get_accelerator(accelerator).create(config=paper_config)
        model = get_workload(model_name)
        for network in _networks(model):
            batch = simulator.simulate_layers(network.bindings)
            per_layer = tuple(
                simulator.simulate_layer(binding) for binding in network.bindings
            )
            assert batch == per_layer

    @settings(max_examples=8, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=6),
        base_channels=st.sampled_from([8, 32, 128]),
        kernel=st.integers(min_value=2, max_value=6),
        stride=st.sampled_from([1, 2, 4]),
        upsample_percent=st.sampled_from([0, 50, 100]),
    )
    def test_parity_on_synthetic_families(
        self, depth, base_channels, kernel, stride, upsample_percent
    ):
        try:
            model = build_synthetic(
                depth=depth,
                base_channels=base_channels,
                kernel=kernel,
                stride=stride,
                upsample_percent=upsample_percent,
            )
        except Exception:
            assume(False)  # no exact-upsampling geometry for these knobs
        config = ArchitectureConfig.paper_default()
        for accelerator in ("eyeriss", "ganax"):
            simulator = get_accelerator(accelerator).create(config=config)
            for network in _networks(model):
                batch = simulator.simulate_layers(network.bindings)
                per_layer = tuple(
                    simulator.simulate_layer(binding)
                    for binding in network.bindings
                )
                assert batch == per_layer


class TestEstimateNetworkParity:
    """``estimate_network`` prices each binding exactly as ``estimate_layer``."""

    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_baseline_network_matches_scalar(self, model_name, paper_config):
        model = get_workload(model_name)
        for network in _networks(model):
            estimates = eyeriss_estimate_network(network.bindings, paper_config)
            assert len(estimates) == len(network.bindings)
            for binding, estimate in zip(network.bindings, estimates):
                assert estimate == eyeriss_estimate(binding, paper_config)

    @pytest.mark.parametrize("zero_skipping", (True, False))
    @pytest.mark.parametrize("model_name", sorted(workload_names()))
    def test_ganax_network_matches_scalar(self, model_name, zero_skipping, paper_config):
        model = get_workload(model_name)
        for network in _networks(model):
            estimates = ganax_estimate_network(
                network.bindings, paper_config, zero_skipping=zero_skipping
            )
            assert len(estimates) == len(network.bindings)
            for binding, estimate in zip(network.bindings, estimates):
                assert estimate == ganax_estimate(
                    binding, paper_config, zero_skipping=zero_skipping
                )

    def test_network_preserves_binding_order(self, paper_config, dcgan_model):
        bindings = dcgan_model.generator.bindings
        reversed_bindings = tuple(reversed(bindings))
        forward = eyeriss_estimate_network(bindings, paper_config)
        backward = eyeriss_estimate_network(reversed_bindings, paper_config)
        assert forward == tuple(reversed(backward))


class TestHugeLayerExactness:
    """Work beyond 2**53 stays exact: every count is a Python ``int``."""

    def _huge_binding(self) -> LayerBinding:
        layer = TransposedConvLayer(
            name="huge_tconv",
            out_channels=2**21,
            kernel=7,
            stride=2,
            padding=3,
            output_padding=1,
        )
        return _bind(layer, FeatureMapShape.image(2**21, 32, 32))

    @staticmethod
    def _assert_exact_ints(estimate):
        for f in dataclasses.fields(estimate):
            value = getattr(estimate, f.name)
            if f.name == "counters":
                for name, count in value.as_dict().items():
                    assert type(count) is int, (name, count)
            elif f.name.endswith("cycles"):
                assert type(value) is int, (f.name, value)

    def test_work_exceeds_float64_exact_range(self):
        assert self._huge_binding().total_macs > 2**53

    def test_baseline_network_matches_layer(self, paper_config):
        binding = self._huge_binding()
        (estimate,) = eyeriss_estimate_network([binding], paper_config)
        assert estimate == eyeriss_estimate(binding, paper_config)
        self._assert_exact_ints(estimate)
        assert estimate.counters.mac_ops == binding.consequential_macs
        assert (
            estimate.counters.mac_ops + estimate.counters.gated_ops
            == binding.total_macs
        )

    @pytest.mark.parametrize("zero_skipping", (True, False))
    def test_ganax_network_matches_layer(self, zero_skipping, paper_config):
        binding = self._huge_binding()
        (estimate,) = ganax_estimate_network(
            [binding], paper_config, zero_skipping=zero_skipping
        )
        assert estimate == ganax_estimate(
            binding, paper_config, zero_skipping=zero_skipping
        )
        self._assert_exact_ints(estimate)
        assert estimate.counters.mac_ops == binding.consequential_macs
