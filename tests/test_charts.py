"""Unit tests for the ASCII bar-chart rendering."""

from __future__ import annotations

import pytest

from repro.analysis.charts import (
    BAR_CHAR,
    MARKER_CHAR,
    fraction_chart,
    horizontal_bar_chart,
    ratio_chart,
)
from repro.errors import AnalysisError


class TestHorizontalBarChart:
    def test_bars_scale_with_values(self):
        chart = horizontal_bar_chart("T", {"A": 1.0, "B": 2.0}, width=20)
        lines = chart.splitlines()
        bar_a = lines[2].split("[")[1].split("]")[0]
        bar_b = lines[3].split("[")[1].split("]")[0]
        assert bar_a.count(BAR_CHAR) == 10
        assert bar_b.count(BAR_CHAR) == 20

    def test_reference_marker_drawn(self):
        chart = horizontal_bar_chart(
            "T", {"A": 4.0}, width=20, reference={"A": 2.0}, max_value=4.0
        )
        bar = chart.splitlines()[2].split("[")[1].split("]")[0]
        assert bar[10] == MARKER_CHAR
        assert "(| = paper)" in chart

    def test_values_appear_with_unit(self):
        chart = horizontal_bar_chart("T", {"A": 3.6}, unit="x")
        assert "3.60x" in chart

    def test_labels_aligned(self):
        chart = horizontal_bar_chart("T", {"short": 1.0, "a-much-longer-label": 1.0})
        lines = chart.splitlines()[2:4]
        assert lines[0].index("[") == lines[1].index("[")

    def test_empty_values_rejected(self):
        with pytest.raises(AnalysisError):
            horizontal_bar_chart("T", {})

    def test_negative_values_rejected(self):
        with pytest.raises(AnalysisError):
            horizontal_bar_chart("T", {"A": -1.0})

    def test_narrow_width_rejected(self):
        with pytest.raises(AnalysisError):
            horizontal_bar_chart("T", {"A": 1.0}, width=5)

    def test_zero_values_render(self):
        chart = horizontal_bar_chart("T", {"A": 0.0})
        assert BAR_CHAR not in chart.splitlines()[2].split("[")[1].split("]")[0]


class TestFigureStyleCharts:
    def test_ratio_chart_uses_x_unit(self):
        chart = ratio_chart("Speedup", {"DCGAN": 4.5, "Geomean": 4.1})
        assert "4.50x" in chart and "Geomean" in chart

    def test_fraction_chart_uses_percent_scale(self):
        chart = fraction_chart("Utilization", {"DCGAN": 0.89})
        assert "89.0%" in chart
        assert "100.0%" in chart  # fixed 0..100 scale

    def test_fraction_chart_reference(self):
        chart = fraction_chart("F", {"DCGAN": 0.9}, reference={"DCGAN": 0.5})
        bar = chart.splitlines()[2].split("[")[1].split("]")[0]
        assert MARKER_CHAR in bar


class TestRegistryAwareCharts:
    """multi_comparison_chart / frontier_chart over arbitrary registry sets."""

    @pytest.fixture(scope="class")
    def comparisons(self):
        from repro.runner import SimulationRunner
        from repro.workloads.registry import get_workload

        runner = SimulationRunner()
        return runner.compare_accelerators(
            [get_workload("DCGAN")],
            ("eyeriss", "ganax", "ideal"),
            baseline="eyeriss",
        )

    def test_one_bar_per_model_accelerator(self, comparisons):
        from repro.analysis.charts import multi_comparison_chart

        chart = multi_comparison_chart("Speedup", comparisons)
        assert "DCGAN/ganax" in chart
        assert "DCGAN/ideal" in chart
        assert "DCGAN/eyeriss" not in chart  # baseline skipped by default
        chart = multi_comparison_chart(
            "Speedup", comparisons, include_baseline=True
        )
        assert "DCGAN/eyeriss" in chart and "1.00x" in chart

    def test_utilization_metric_uses_percent_scale(self, comparisons):
        from repro.analysis.charts import multi_comparison_chart

        chart = multi_comparison_chart(
            "Utilization", comparisons, metric="pe_utilization"
        )
        assert "%" in chart

    def test_unknown_metric_rejected(self, comparisons):
        from repro.analysis.charts import multi_comparison_chart

        with pytest.raises(AnalysisError):
            multi_comparison_chart("T", comparisons, metric="latency")

    def test_empty_comparisons_rejected(self):
        from repro.analysis.charts import multi_comparison_chart

        with pytest.raises(AnalysisError):
            multi_comparison_chart("T", {})

    def test_frontier_chart_marks_frontier_points(self):
        from repro.analysis.charts import frontier_chart
        from repro.dse import DesignPoint, EvaluatedPoint, Objective, ParetoFrontier

        objectives = (Objective("speedup", "max"), Objective("area", "min"))
        points = [
            EvaluatedPoint(
                point=DesignPoint.from_mapping({"num_pvs": pvs}),
                objectives={"speedup": speedup, "area": area},
            )
            for pvs, speedup, area in [(8, 2.0, 1.0), (16, 1.0, 1.0)]
        ]
        frontier = ParetoFrontier(objectives, points)
        chart = frontier_chart("DSE", frontier)
        assert "[speedup]" in chart
        assert "num_pvs=8 *" in chart  # the winner is marked
        assert "num_pvs=16" in chart and "num_pvs=16 *" not in chart
        assert "Pareto frontier" in chart
        by_area = frontier_chart("DSE", frontier, objective="area")
        assert "[area]" in by_area
        with pytest.raises(AnalysisError):
            frontier_chart("DSE", frontier, objective="latency")
