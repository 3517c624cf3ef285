"""Integration tests: cycle-level execution vs the NumPy functional reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import GanaxLayerExecutor, compile_layer_programs
from repro.errors import CompilationError
from repro.nn.functional import conv2d, transposed_conv2d
from repro.workloads.registry import get_workload


class TestGanaxDataflowCorrectness:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,pes",
        [
            (4, 5, 2, 2, 4),   # the paper's running example
            (4, 4, 2, 1, 4),   # DCGAN-style geometry
            (5, 3, 1, 1, 4),   # stride-1 (no zero insertion)
            (3, 6, 3, 2, 4),   # stride-3
            (6, 4, 2, 1, 4),   # larger map
        ],
    )
    def test_matches_numpy_reference(self, rng, size, kernel, stride, padding, pes):
        x = rng.standard_normal((size, size))
        w = rng.standard_normal((kernel, kernel))
        reference = transposed_conv2d(x[None], w[None, None], stride=stride, padding=padding)[0]
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=pes, skip_zeros=True)
        result = executor.run_transposed_conv(x, w, stride=stride, padding=padding)
        assert result.output.shape == reference.shape
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_non_square_input(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 4))
        reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=1)[0]
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
        result = executor.run_transposed_conv(x, w, stride=2, padding=1)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_more_pvs_than_rows(self, rng):
        x = rng.standard_normal((2, 2))
        w = rng.standard_normal((4, 4))
        reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=1)[0]
        executor = GanaxLayerExecutor(num_pvs=8, pes_per_pv=4, skip_zeros=True)
        result = executor.run_transposed_conv(x, w, stride=2, padding=1)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_rejects_insufficient_pes(self, rng):
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((5, 5))
        # Even-phase rows need 3 active PEs; a 2-PE PV cannot host them.
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=2, skip_zeros=True)
        with pytest.raises(CompilationError):
            executor.run_transposed_conv(x, w, stride=2, padding=2)

    def test_rejects_multichannel_input(self, rng):
        executor = GanaxLayerExecutor()
        with pytest.raises(CompilationError):
            executor.run_transposed_conv(
                rng.standard_normal((2, 4, 4)), rng.standard_normal((3, 3)), 2, 1
            )


class TestConventionalDataflowCorrectness:
    def test_dense_tconv_matches_reference(self, rng):
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((5, 5))
        reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=2)[0]
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=5, skip_zeros=False)
        result = executor.run_transposed_conv(x, w, stride=2, padding=2)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)
        assert not result.skip_zeros

    def test_conv_matches_reference(self, rng):
        x = rng.standard_normal((6, 6))
        w = rng.standard_normal((3, 3))
        reference = conv2d(x[None], w[None, None], stride=1, padding=1)[0]
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=3)
        result = executor.run_conv(x, w, stride=1, padding=1)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_strided_conv_matches_reference(self, rng):
        x = rng.standard_normal((8, 8))
        w = rng.standard_normal((4, 4))
        reference = conv2d(x[None], w[None, None], stride=2, padding=1)[0]
        executor = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4)
        result = executor.run_conv(x, w, stride=2, padding=1)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)


class TestZeroSkippingBenefit:
    def test_ganax_executes_fewer_pe_uops_than_dense(self, rng):
        """The headline microarchitectural claim at PE level: skipping the
        inserted zeros removes a large share of the multiply-adds."""
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((5, 5))
        ganax = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
        dense = GanaxLayerExecutor(num_pvs=2, pes_per_pv=5, skip_zeros=False)
        ganax_run = ganax.run_transposed_conv(x, w, stride=2, padding=2)
        dense_run = dense.run_transposed_conv(x, w, stride=2, padding=2)
        assert ganax_run.executed_pe_uops < dense_run.executed_pe_uops
        assert ganax_run.counters_mac_ratio(dense_run) < 0.7 if hasattr(ganax_run, "counters_mac_ratio") else True

    def test_stride1_has_no_skipping_advantage(self, rng):
        """With stride 1 nothing is inserted, so both dataflows do similar work."""
        x = rng.standard_normal((5, 5))
        w = rng.standard_normal((3, 3))
        ganax = GanaxLayerExecutor(num_pvs=2, pes_per_pv=3, skip_zeros=True)
        dense = GanaxLayerExecutor(num_pvs=2, pes_per_pv=3, skip_zeros=False)
        ganax_run = ganax.run_transposed_conv(x, w, stride=1, padding=1)
        dense_run = dense.run_transposed_conv(x, w, stride=1, padding=1)
        ratio = dense_run.executed_pe_uops / ganax_run.executed_pe_uops
        assert 0.8 <= ratio <= 1.3

    def test_wave_count_scales_with_rows(self, rng):
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((4, 4))
        two_pvs = GanaxLayerExecutor(num_pvs=2, pes_per_pv=4, skip_zeros=True)
        four_pvs = GanaxLayerExecutor(num_pvs=4, pes_per_pv=4, skip_zeros=True)
        assert (
            two_pvs.run_transposed_conv(x, w, 2, 1).waves
            > four_pvs.run_transposed_conv(x, w, 2, 1).waves
        )


class TestCompileLayerPrograms:
    @pytest.mark.parametrize(
        "bounds", [{"max_columns": 0}, {"max_waves": 0}, {"max_waves": -1}, {"max_columns": -2}]
    )
    def test_compile_bounds_below_one_are_rejected(self, bounds):
        # Python slicing would silently drop the tile (0) or the last wave (-1)
        binding = next(b for b in get_workload("dcgan").generator.bindings if b.is_transposed)
        with pytest.raises(CompilationError, match="must be at least 1"):
            compile_layer_programs(binding, num_pvs=16, pes_per_pv=16, **bounds)
        # the smallest legal bounds still compile a (one-wave, one-column) tile
        programs = compile_layer_programs(
            binding, num_pvs=16, pes_per_pv=16, max_waves=1, max_columns=1
        )
        assert len(programs) == 1
