"""Result containers, metrics, breakdowns, reports and sweeps."""

from .breakdown import (
    FIGURE9_SEGMENTS,
    average_breakdown,
    energy_breakdown,
    runtime_breakdown,
    unit_energy_breakdown,
)
from .metrics import (
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
from .report import (
    format_fraction_series,
    format_key_values,
    format_ratio_series,
    format_stacked_breakdown,
    format_table,
)
from .charts import (
    fraction_chart,
    frontier_chart,
    horizontal_bar_chart,
    multi_comparison_chart,
    ratio_chart,
)
from .results import (
    ComparisonResult,
    GanResult,
    LayerResult,
    MultiComparison,
    NetworkResult,
)
from .serialization import (
    canonical_json,
    config_fingerprint,
    fingerprint_data,
    multi_comparison_rows,
    options_fingerprint,
    workload_fingerprint,
)
from .sweep import (
    ParameterSweep,
    SweepPoint,
    compare_accelerators,
    compare_model,
    compare_models,
)

__all__ = [
    "FIGURE9_SEGMENTS",
    "average_breakdown",
    "energy_breakdown",
    "runtime_breakdown",
    "unit_energy_breakdown",
    "arithmetic_mean",
    "fraction_summary",
    "geometric_mean",
    "normalize",
    "percent",
    "ratio_summary",
    "reduction",
    "speedup",
    "utilization",
    "format_fraction_series",
    "format_key_values",
    "format_ratio_series",
    "format_stacked_breakdown",
    "format_table",
    "fraction_chart",
    "frontier_chart",
    "horizontal_bar_chart",
    "multi_comparison_chart",
    "ratio_chart",
    "ComparisonResult",
    "GanResult",
    "LayerResult",
    "MultiComparison",
    "NetworkResult",
    "canonical_json",
    "config_fingerprint",
    "fingerprint_data",
    "multi_comparison_rows",
    "options_fingerprint",
    "workload_fingerprint",
    "ParameterSweep",
    "SweepPoint",
    "compare_accelerators",
    "compare_model",
    "compare_models",
]
