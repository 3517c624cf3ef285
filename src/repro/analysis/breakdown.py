"""Breakdown helpers for Figures 9 and 10.

Figure 9 splits each GAN's runtime and energy between the discriminative and
generative models, normalised to the EYERISS total; Figure 10 splits the
generative models' energy between the microarchitectural units (PE, register
file, NoC, global buffer, DRAM), again normalised to EYERISS.  The helpers
here turn :class:`~repro.analysis.results.ComparisonResult` objects into the
plain nested dictionaries the report renderer and the benchmarks print.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..errors import AnalysisError
from .results import ComparisonResult

#: Ordering of the stacked-bar segments in Figure 9.
FIGURE9_SEGMENTS = ("discriminative", "generative")


def runtime_breakdown(comparison: ComparisonResult) -> Dict[str, Dict[str, float]]:
    """Figure 9(a) rows for one GAN: normalised runtime per accelerator."""
    return comparison.normalized_runtime()


def energy_breakdown(comparison: ComparisonResult) -> Dict[str, Dict[str, float]]:
    """Figure 9(b) rows for one GAN: normalised energy per accelerator."""
    return comparison.normalized_energy()


def unit_energy_breakdown(comparison: ComparisonResult) -> Dict[str, Dict[str, float]]:
    """Figure 10 rows for one GAN: per-unit generator energy, normalised."""
    return comparison.normalized_unit_energy()


def average_breakdown(
    per_model: Mapping[str, Mapping[str, Mapping[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Arithmetic average of per-model breakdowns (the figures' Average bars).

    ``per_model`` maps model name -> accelerator -> segment -> value.
    """
    if not per_model:
        raise AnalysisError("no per-model breakdowns provided")
    accumulator: Dict[str, Dict[str, float]] = {}
    count = len(per_model)
    for breakdown in per_model.values():
        for accelerator, segments in breakdown.items():
            acc = accumulator.setdefault(accelerator, {})
            for segment, value in segments.items():
                acc[segment] = acc.get(segment, 0.0) + value
    return {
        accelerator: {segment: value / count for segment, value in segments.items()}
        for accelerator, segments in accumulator.items()
    }
