"""Unit tests for metrics, breakdowns, report rendering and sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.breakdown import average_breakdown
from repro.analysis.metrics import (
    arithmetic_mean,
    fraction_summary,
    geometric_mean,
    normalize,
    percent,
    ratio_summary,
    reduction,
    speedup,
    utilization,
)
from repro.analysis.report import (
    format_fraction_series,
    format_key_values,
    format_ratio_series,
    format_stacked_breakdown,
    format_table,
)
from repro.analysis.sweep import ParameterSweep, compare_model, compare_models
from repro.config import ArchitectureConfig
from repro.errors import AnalysisError
from repro.workloads import get_workload


class TestMetrics:
    def test_speedup(self):
        assert speedup(100, 25) == 4.0

    def test_speedup_rejects_zero_improved(self):
        with pytest.raises(AnalysisError):
            speedup(100, 0)

    def test_reduction(self):
        assert reduction(300, 100) == 3.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(AnalysisError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(AnalysisError):
            geometric_mean([])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_normalize(self):
        assert normalize({"a": 2.0, "b": 4.0}, 4.0) == {"a": 0.5, "b": 1.0}
        with pytest.raises(AnalysisError):
            normalize({"a": 1.0}, 0.0)

    def test_utilization_clamps(self):
        assert utilization(5, 10) == 0.5
        assert utilization(20, 10) == 1.0
        assert utilization(1, 0) == 0.0

    def test_percent_rendering(self):
        assert percent(0.785) == "78.5%"

    def test_ratio_summary_adds_geomean(self):
        summary = ratio_summary({"A": 2.0, "B": 8.0})
        assert summary["Geomean"] == pytest.approx(4.0)
        assert set(summary) == {"A", "B", "Geomean"}

    def test_fraction_summary_adds_average(self):
        summary = fraction_summary({"A": 0.2, "B": 0.4})
        assert summary["Average"] == pytest.approx(0.3)


class TestBreakdownHelpers:
    def test_average_breakdown(self):
        per_model = {
            "A": {"eyeriss": {"x": 1.0, "y": 0.0}, "ganax": {"x": 0.5, "y": 0.0}},
            "B": {"eyeriss": {"x": 0.0, "y": 1.0}, "ganax": {"x": 0.0, "y": 0.25}},
        }
        average = average_breakdown(per_model)
        assert average["eyeriss"]["x"] == pytest.approx(0.5)
        assert average["ganax"]["y"] == pytest.approx(0.125)

    def test_average_breakdown_empty_rejected(self):
        with pytest.raises(AnalysisError):
            average_breakdown({})


class TestReportRendering:
    def test_format_table_alignment(self):
        text = format_table(["Name", "Value"], [["a", 1.5], ["bb", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[2] and "Value" in lines[2]
        assert len(lines) == 6

    def test_format_table_wrong_arity_rejected(self):
        with pytest.raises(AnalysisError):
            format_table(["A"], [["x", "y"]])

    def test_format_table_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_format_ratio_series_includes_reference(self):
        text = format_ratio_series("S", {"A": 2.0}, reference={"A": 3.0})
        assert "2.00" in text and "3.00" in text and "Paper" in text

    def test_format_fraction_series_percentages(self):
        text = format_fraction_series("F", {"A": 0.25})
        assert "25.0" in text

    def test_format_stacked_breakdown(self):
        per_model = {
            "A": {
                "eyeriss": {"generative": 0.7, "discriminative": 0.3},
                "ganax": {"generative": 0.2, "discriminative": 0.3},
            }
        }
        text = format_stacked_breakdown("B", per_model, ("discriminative", "generative"))
        assert "eyeriss" in text and "ganax" in text
        assert "0.300" in text and "0.700" in text

    def test_format_key_values(self):
        text = format_key_values("KV", {"speed": "3.6x"})
        assert "speed" in text and "3.6x" in text


class TestSweep:
    @pytest.fixture(scope="class")
    def model(self):
        return get_workload("DCGAN")

    def test_compare_model_names(self, model):
        comparison = compare_model(model)
        assert comparison.model_name == "DCGAN"
        assert comparison.eyeriss.accelerator == "eyeriss"
        assert comparison.ganax.accelerator == "ganax"

    def test_compare_models_keys(self, model):
        comparisons = compare_models([model])
        assert set(comparisons) == {"DCGAN"}

    def test_compare_models_empty_rejected(self):
        with pytest.raises(AnalysisError):
            compare_models([])

    def test_parameter_sweep_points(self, model):
        sweep = ParameterSweep([model])
        points = sweep.run("ganax_target_utilization", [0.5, 0.92])
        assert len(points) == 2
        assert points[0].geomean_speedup < points[1].geomean_speedup
        assert all("DCGAN" in p.speedups for p in points)

    def test_parameter_sweep_labelled_configs(self, model):
        sweep = ParameterSweep([model])
        points = sweep.run_configs({
            "paper": ArchitectureConfig.paper_default(),
        })
        assert points[0].label == "paper"
        assert points[0].geomean_energy_reduction > 1.0

    def test_sweep_requires_values(self, model):
        sweep = ParameterSweep([model])
        with pytest.raises(AnalysisError):
            sweep.run("num_pvs", [])

    def test_sweep_requires_models(self):
        with pytest.raises(AnalysisError):
            ParameterSweep([])
