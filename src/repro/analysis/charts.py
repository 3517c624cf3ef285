"""ASCII bar charts for figure-style data.

The paper's evaluation figures are bar charts.  The experiment harness renders
its data as tables (:mod:`repro.analysis.report`); this module adds simple
horizontal ASCII bar charts so the CLI output visually resembles the figures —
one bar per GAN, an explicit scale, and optional paper-reference markers.

Beyond the fixed-pair figure styles, two registry-aware renderers cover the
open grid: :func:`multi_comparison_chart` draws a
:class:`~repro.analysis.results.MultiComparison` set over *any* accelerator
list (one bar per model x accelerator, whatever is registered), and
:func:`frontier_chart` draws a :class:`~repro.dse.ParetoFrontier`, marking
which design points survived domination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..errors import AnalysisError

if TYPE_CHECKING:  # imported only for annotations: dse imports analysis back
    from ..dse.pareto import ParetoFrontier
    from .results import MultiComparison

#: Character used for the filled portion of a bar.
BAR_CHAR = "#"
#: Character used for the paper-reference marker.
MARKER_CHAR = "|"


def horizontal_bar_chart(
    title: str,
    values: Mapping[str, float],
    *,
    width: int = 50,
    unit: str = "x",
    reference: Optional[Mapping[str, float]] = None,
    max_value: Optional[float] = None,
) -> str:
    """Render a labelled horizontal bar chart.

    Parameters
    ----------
    title:
        Chart heading.
    values:
        Label -> value mapping; insertion order is preserved.
    width:
        Width of the bar area in characters.
    unit:
        Unit suffix appended to the numeric value (``"x"`` or ``"%"``).
    reference:
        Optional label -> paper value mapping; a ``|`` marker is drawn at each
        reference position so measured bars can be compared at a glance.
    max_value:
        Scale maximum; defaults to the largest value/reference present.
    """
    if not values:
        raise AnalysisError("cannot chart an empty value mapping")
    if width < 10:
        raise AnalysisError("chart width must be at least 10 characters")
    if any(v < 0 for v in values.values()):
        raise AnalysisError("bar chart values must be non-negative")

    scale_candidates = list(values.values())
    if reference:
        scale_candidates.extend(v for v in reference.values() if v is not None)
    scale = max_value if max_value is not None else max(scale_candidates)
    if scale <= 0:
        scale = 1.0

    label_width = max(len(label) for label in values)
    lines = [title, "=" * len(title)]
    for label, value in values.items():
        filled = min(width, int(round(width * value / scale)))
        bar = list(BAR_CHAR * filled + " " * (width - filled))
        if reference and reference.get(label) is not None:
            marker = min(width - 1, int(round(width * reference[label] / scale)))
            bar[marker] = MARKER_CHAR
        rendered_value = _format_value(value, unit)
        lines.append(f"{label.ljust(label_width)} [{''.join(bar)}] {rendered_value}")
    lines.append(f"{' ' * label_width}  scale: 0 .. {_format_value(scale, unit)}"
                 + ("   (| = paper)" if reference else ""))
    return "\n".join(lines)


def ratio_chart(
    title: str,
    per_model: Mapping[str, float],
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Figure 8-style chart: one bar per GAN, values in 'x'."""
    return horizontal_bar_chart(title, per_model, unit="x", reference=reference)


def fraction_chart(
    title: str,
    per_model: Mapping[str, float],
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Figure 1/11-style chart: one bar per GAN, values in percent."""
    percentages = {label: 100.0 * value for label, value in per_model.items()}
    scaled_reference = None
    if reference is not None:
        scaled_reference = {
            label: 100.0 * value
            for label, value in reference.items()
            if value is not None
        }
    return horizontal_bar_chart(
        title, percentages, unit="%", reference=scaled_reference, max_value=100.0
    )


#: Metric extractors for multi_comparison_chart: name -> (getter, unit).
_COMPARISON_METRICS = {
    "speedup": (lambda multi, name: multi.generator_speedup(name), "x"),
    "energy_reduction": (
        lambda multi, name: multi.generator_energy_reduction(name),
        "x",
    ),
    "pe_utilization": (
        lambda multi, name: 100.0 * multi.generator_utilization(name),
        "%",
    ),
}


def multi_comparison_chart(
    title: str,
    comparisons: Mapping[str, "MultiComparison"],
    *,
    metric: str = "speedup",
    include_baseline: bool = False,
    width: int = 50,
) -> str:
    """One bar per (model, accelerator) over an arbitrary accelerator set.

    The registry-aware counterpart of :func:`ratio_chart`: rather than
    assuming the paper's EYERISS/GANAX pair, it renders whatever accelerators
    each :class:`~repro.analysis.results.MultiComparison` holds, labelled
    ``model/accelerator``.  ``metric`` is one of ``"speedup"``,
    ``"energy_reduction"`` or ``"pe_utilization"``; baseline bars (always 1x
    for the ratio metrics) are skipped unless ``include_baseline``.
    """
    if not comparisons:
        raise AnalysisError("cannot chart an empty comparison set")
    if metric not in _COMPARISON_METRICS:
        raise AnalysisError(
            f"unknown comparison metric '{metric}'; "
            f"choose from: {', '.join(sorted(_COMPARISON_METRICS))}"
        )
    getter, unit = _COMPARISON_METRICS[metric]
    values = {}
    for model_name, multi in comparisons.items():
        for accelerator in multi.accelerators:
            if accelerator == multi.baseline and not include_baseline:
                continue
            values[f"{model_name}/{accelerator}"] = getter(multi, accelerator)
    if not values:
        raise AnalysisError(
            "nothing to chart: every compared accelerator is the baseline "
            "(pass include_baseline=True)"
        )
    return horizontal_bar_chart(
        title,
        values,
        width=width,
        unit=unit,
        max_value=100.0 if unit == "%" else None,
    )


def frontier_chart(
    title: str,
    frontier: "ParetoFrontier",
    *,
    objective: Optional[str] = None,
    width: int = 50,
) -> str:
    """One bar per evaluated design point, frontier members marked with '*'.

    Renders one objective (the frontier's first by default) across the whole
    Pareto partition — frontier points first (labelled ``label *``), then the
    dominated ones — so a :meth:`repro.Session.explore` result reads like the
    paper's figure-style charts.
    """
    points = (*frontier.frontier, *frontier.dominated)
    if not points:
        raise AnalysisError("cannot chart an empty frontier")
    names = [o.name for o in frontier.objectives]
    chosen = objective if objective is not None else names[0]
    if chosen not in names:
        raise AnalysisError(
            f"unknown objective '{chosen}'; frontier has: {', '.join(names)}"
        )
    on_frontier = set(id(p) for p in frontier.frontier)
    values = {
        f"{point.label}{' *' if id(point) in on_frontier else ''}": point.objective(
            chosen
        )
        for point in points
    }
    chart = horizontal_bar_chart(f"{title} [{chosen}]", values, width=width)
    return chart + "\n(* = on the Pareto frontier)"


def _format_value(value: float, unit: str) -> str:
    if unit == "%":
        return f"{value:.1f}%"
    return f"{value:.2f}{unit}"
