"""Integration tests: cycle-level execution vs the NumPy functional reference."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import (
    ColumnWork,
    GanaxLayerExecutor,
    _bind,
    _column_window,
    compile_layer_programs,
    plan_ganax_row_tasks,
)
from repro.core.dataflow import build_schedule
from repro.errors import CompilationError
from repro.nn.functional import transposed_conv2d
from repro.nn.layers import TransposedConvLayer
from repro.nn.shapes import FeatureMapShape
from repro.schedule import resolve_schedule, schedule_names
from repro.staticcheck import filecheck
from repro.staticcheck.checks import _exact_key
from repro.workloads.registry import get_workload

CHK_DIR = Path(__file__).parent / "filecheck"


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


class TestSharedPlanning:
    """The planner builds one column tuple per layer and the builder one
    object per distinct µop; both must stay exact."""

    def test_compiled_stream_holds_one_object_per_distinct_uop(self):
        """A regression to one allocation per emission fails here, not only
        in the benchmark: DCGAN's first generator tconv, default schedule."""
        binding = next(
            b for b in get_workload("dcgan").generator.bindings if b.name == "tconv1"
        )
        (program,) = compile_layer_programs(
            binding, num_pvs=16, pes_per_pv=16, skip_zeros=True,
            max_waves=1, max_columns=4,
        )
        stream = program.global_uops
        keys = {_exact_key(uop) for uop in stream}
        assert None not in keys
        assert len({id(uop) for uop in stream}) == len(keys) < len(stream)
        filecheck(program.disassemble(), (CHK_DIR / "dcgan_tconv1_skip.chk").read_text())

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        data=st.data(),
        schedule=st.sampled_from(schedule_names() + ("colmajor@tile2", "colmajor@tile3")),
    )
    def test_row_tasks_share_the_per_row_column_plan(self, kernel, stride, data, schedule):
        padding = data.draw(st.integers(0, kernel - 1), label="padding")
        in_cols = data.draw(st.integers(kernel, kernel + 6), label="in_cols")
        in_rows = data.draw(st.integers(kernel, kernel + 2), label="in_rows")
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=kernel, stride=stride, padding=padding
        )
        binding = _bind(layer, FeatureMapShape.image(1, in_rows, in_cols))
        spec = resolve_schedule(schedule)
        dataflow = build_schedule(binding, spec)
        tasks = plan_ganax_row_tasks(layer, in_cols, dataflow, 3, schedule_spec=spec)
        assert tasks
        for task in tasks:
            # the per-row computation the planner used to repeat
            per_row = spec.permute_columns(
                tuple(
                    ColumnWork(
                        taps=taps,
                        input_base=input_base,
                        weight_base=kernel_cols[0],
                        weight_step=stride,
                        output_column=out_col,
                    )
                    for out_col in range(dataflow.output_cols)
                    for taps, kernel_cols, input_base in [
                        _column_window(out_col, layer, in_cols)
                    ]
                    if taps > 0
                )
            )
            assert task.columns == per_row
