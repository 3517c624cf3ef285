"""Unit tests for the GANAX dataflow (output/filter-row reorganization)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import plan_ganax_row_tasks
from repro.core.dataflow import average_active_filter_rows, build_schedule, schedule_summary
from repro.errors import DataflowError, ScheduleError
from repro.nn.layers import ActivationLayer, ConvLayer, TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape
from repro.workloads import get_workload, workload_names


def _bind(layer, input_shape):
    return LayerBinding(
        index=0,
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
    )


class TestTransposedConvSchedule:
    def test_paper_example_two_groups(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        assert schedule.num_patterns == 2
        assert schedule.output_rows == 7
        assert schedule.output_cols == 7

    def test_paper_example_group_filter_rows(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        by_phase = {g.phase: g for g in schedule.row_groups}
        assert by_phase[0].filter_rows == (0, 2, 4)
        assert by_phase[1].filter_rows == (1, 3)

    def test_paper_example_accumulation_depth_reduced(self, example_tconv_binding):
        # The accumulation chain shrinks from 5 to 3 (even rows) / 2 (odd rows).
        schedule = build_schedule(example_tconv_binding)
        depths = sorted(g.active_pes for g in schedule.row_groups)
        assert depths == [2, 3]

    def test_paper_example_idle_fraction_is_half(self, example_tconv_binding):
        # Figure 4(b): 50% of the compute nodes are idle before reorganization.
        schedule = build_schedule(example_tconv_binding)
        assert schedule.baseline_idle_fraction() == pytest.approx(0.5, abs=0.05)

    def test_groups_cover_all_output_rows_exactly_once(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        covered = sorted(row for g in schedule.row_groups for row in g.output_rows)
        assert covered == list(range(schedule.output_rows))

    def test_rows_within_group_share_phase(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        for group in schedule.row_groups:
            assert all(row % schedule.stride_rows == group.phase for row in group.output_rows)

    def test_column_segments_cover_all_columns(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        for group in schedule.row_groups:
            covered = sorted(c for s in group.column_segments for c in s.columns)
            assert covered == list(range(schedule.output_cols))

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda kernel: st.tuples(
                st.just(kernel),
                st.integers(min_value=1, max_value=4),  # stride
                st.integers(min_value=0, max_value=kernel - 1),  # padding
                st.integers(min_value=kernel + 1, max_value=kernel + 4),  # size
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_filter_rows_match_genuine_value_mask(self, geometry):
        """Each phase's filter rows are the kernel rows whose window row holds
        a genuine input value, read off an explicit zero-insertion mask (built
        as ``oracles.count_consequential_macs_bruteforce`` builds it) for an interior
        output row of that phase, where no border truncates the window."""
        kernel, stride, padding, size = geometry
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(1, size, size)
        expanded = layer.expanded_spatial(shape)
        border = kernel - 1 - padding
        genuine = border + stride * np.arange(size)
        mask = np.zeros(expanded, dtype=bool)
        mask[np.ix_(genuine, genuine)] = True
        genuine_rows = mask.any(axis=1)

        schedule = build_schedule(_bind(layer, shape))
        assert [g.phase for g in schedule.row_groups] == list(range(stride))
        for group in schedule.row_groups:
            interior = next(
                r
                for r in group.output_rows
                if genuine[0] <= r and r + kernel - 1 <= genuine[-1]
            )
            hit = tuple(k for k in range(kernel) if genuine_rows[interior + k])
            # A phase that meets no genuine row keeps one idle filter row.
            assert group.filter_rows == (hit or (0,))

    def test_dcgan_geometry_uniform_two_taps(self, dcgan_like_tconv_binding):
        # Kernel 4 / stride 2: every group uses exactly 2 filter rows and every
        # column phase exactly 2 kernel columns.
        schedule = build_schedule(dcgan_like_tconv_binding)
        assert schedule.num_patterns == 2
        assert all(g.active_pes == 2 for g in schedule.row_groups)
        for group in schedule.row_groups:
            assert all(s.taps == 2 for s in group.column_segments)

    def test_stride1_is_single_simd_pattern(self):
        layer = TransposedConvLayer(name="t", out_channels=2, kernel=3, stride=1, padding=1)
        schedule = build_schedule(_bind(layer, FeatureMapShape.image(2, 8, 8)))
        assert schedule.num_patterns == 1
        assert schedule.row_groups[0].filter_rows == (0, 1, 2)
        assert schedule.row_groups[0].output_rows == tuple(range(8))

    def test_stride3_three_patterns(self):
        layer = TransposedConvLayer(name="t", out_channels=1, kernel=6, stride=3, padding=2)
        schedule = build_schedule(_bind(layer, FeatureMapShape.image(1, 5, 5)))
        assert schedule.num_patterns == 3
        # border = 6 - 1 - 2 = 3: phase p keeps the rows k with (p + k) % 3 == 0.
        assert [g.filter_rows for g in schedule.row_groups] == [(0, 3), (2, 5), (1, 4)]
        covered = sorted(row for g in schedule.row_groups for row in g.output_rows)
        assert covered == list(range(schedule.output_rows))

    def test_3d_layer_schedules_one_slice(self):
        layer = TransposedConvLayer(
            name="t3", out_channels=2, kernel=4, stride=2, padding=1, rank=3
        )
        schedule = build_schedule(_bind(layer, FeatureMapShape.volume(2, 4, 4, 4)))
        assert schedule.output_rows == 8
        assert schedule.output_cols == 8
        assert schedule.num_patterns == 2

    def test_average_active_filter_rows_paper_example(self, example_tconv_binding):
        schedule = build_schedule(example_tconv_binding)
        # 4 even rows use 3 filter rows, 3 odd rows use 2: mean = (4*3+3*2)/7.
        assert average_active_filter_rows(schedule) == pytest.approx((4 * 3 + 3 * 2) / 7)


def _assert_summary_matches_schedule(binding):
    summary = schedule_summary(binding)
    schedule = build_schedule(binding)
    assert summary.output_rows == schedule.output_rows
    assert summary.num_patterns == schedule.num_patterns
    assert summary.average_active_filter_rows == average_active_filter_rows(schedule)


class TestScheduleSummary:
    """The estimator reads ``schedule_summary``; it must equal the summary of
    the schedule the compiler lowers."""

    @pytest.mark.parametrize("model_name", workload_names())
    def test_matches_schedule_on_every_paper_layer(self, model_name):
        model = get_workload(model_name)
        bindings = [
            binding
            for network in (model.generator, model.discriminator)
            for binding in network.bindings
            if binding.is_convolutional
        ]
        assert bindings
        for binding in bindings:
            _assert_summary_matches_schedule(binding)

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda kernel: st.tuples(
                st.just(kernel),
                st.integers(min_value=1, max_value=4),  # stride
                st.integers(min_value=0, max_value=kernel - 1),  # padding
                st.integers(min_value=kernel, max_value=kernel + 4),  # size
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_schedule_on_tconv_geometries(self, geometry):
        kernel, stride, padding, size = geometry
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=kernel, stride=stride, padding=padding
        )
        _assert_summary_matches_schedule(_bind(layer, FeatureMapShape.image(1, size, size)))


class TestConvSchedule:
    def test_conv_schedule_is_single_group(self, conv_binding):
        schedule = build_schedule(conv_binding)
        assert schedule.num_patterns == 1
        group = schedule.row_groups[0]
        assert group.filter_rows == tuple(range(4))

    def test_conv_idle_fraction_is_zero(self, conv_binding):
        assert build_schedule(conv_binding).baseline_idle_fraction() == 0.0

    def test_non_convolutional_layer_rejected(self):
        layer = ActivationLayer(name="a", function="relu")
        binding = LayerBinding(
            index=0,
            layer=layer,
            input_shape=FeatureMapShape.image(1, 4, 4),
            output_shape=FeatureMapShape.image(1, 4, 4),
        )
        with pytest.raises(DataflowError):
            build_schedule(binding)


class TestPvAssignment:
    """The compiler hands output rows to PVs round-robin, group by group."""

    @staticmethod
    def _pv_of_row(binding, num_pvs):
        tasks = plan_ganax_row_tasks(
            binding.layer, binding.input_shape.spatial[1], build_schedule(binding), num_pvs
        )
        return {task.output_row: task.pv_index for task in tasks}, len(tasks)

    def test_round_robin_covers_all_rows(self, example_tconv_binding):
        pv_of, count = self._pv_of_row(example_tconv_binding, num_pvs=4)
        assert count == len(pv_of)  # no row is planned twice
        assert sorted(pv_of) == list(range(build_schedule(example_tconv_binding).output_rows))
        assert set(pv_of.values()) == set(range(4))

    def test_adjacent_rows_of_same_group_land_on_adjacent_pvs(self, example_tconv_binding):
        pv_of, _count = self._pv_of_row(example_tconv_binding, num_pvs=16)
        even_rows = build_schedule(example_tconv_binding).row_groups[0].output_rows
        assert [pv_of[row] for row in even_rows] == list(range(len(even_rows)))

    def test_invalid_pv_count(self, example_tconv_binding):
        with pytest.raises(ScheduleError):
            self._pv_of_row(example_tconv_binding, num_pvs=0)
