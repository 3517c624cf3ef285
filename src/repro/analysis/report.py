"""Plain-text rendering of tables and figure data.

The experiments produce dictionaries; this module renders them as aligned
ASCII tables so the benchmark harness and the CLI can print the same rows and
series the paper's tables and figures report.  Rendering is deliberately
dependency-free (no plotting) because the reproduction targets textual
regeneration of every table/figure.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import AnalysisError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of rows as an aligned ASCII table."""
    if not headers:
        raise AnalysisError("a table needs at least one column")
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        rendered_rows.append([_format_cell(cell, float_format) for cell in row])

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object, float_format: str) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return float_format.format(cell)
    return str(cell)


def format_ratio_series(
    title: str,
    per_model: Mapping[str, float],
    unit: str = "x",
    reference: Optional[Mapping[str, float]] = None,
    reference_label: str = "paper",
) -> str:
    """Render a per-model ratio series (Figure 8 style) as a table."""
    headers = ["Model", f"Measured ({unit})"]
    if reference is not None:
        headers.append(f"{reference_label.capitalize()} ({unit})")
    rows = []
    for model, value in per_model.items():
        row: List[object] = [model, value]
        if reference is not None:
            row.append(reference.get(model, float("nan")))
        rows.append(row)
    return format_table(headers, rows, title=title, float_format="{:.2f}")


def format_fraction_series(
    title: str,
    per_model: Mapping[str, float],
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a per-model fraction series (Figure 1 / 11 style) as a table."""
    headers = ["Model", "Measured (%)"]
    if reference is not None:
        headers.append("Paper (%)")
    rows = []
    for model, value in per_model.items():
        row: List[object] = [model, 100.0 * value]
        if reference is not None:
            ref = reference.get(model)
            row.append(100.0 * ref if ref is not None else float("nan"))
        rows.append(row)
    return format_table(headers, rows, title=title, float_format="{:.1f}")


def format_stacked_breakdown(
    title: str,
    per_model: Mapping[str, Mapping[str, Mapping[str, float]]],
    segments: Sequence[str],
) -> str:
    """Render Figure 9/10-style stacked bars as a table.

    Each model contributes one row per accelerator with one column per
    segment plus a total column, all normalised to the EYERISS total (1.0).
    """
    headers = ["Model", "Accelerator", *[s.capitalize() for s in segments], "Total"]
    rows: List[List[object]] = []
    for model, breakdown in per_model.items():
        for accelerator, values in breakdown.items():
            missing = [s for s in segments if s not in values]
            if missing:
                raise AnalysisError(
                    f"{model}/{accelerator}: missing segments {missing}"
                )
            segment_values = [values[s] for s in segments]
            rows.append([model, accelerator, *segment_values, sum(segment_values)])
    return format_table(headers, rows, title=title, float_format="{:.3f}")


def format_frontier(
    title: str,
    points: Sequence[Mapping[str, object]],
    objectives: Sequence[Sequence[str]],
) -> str:
    """Render a design-space exploration's Pareto partition as a table.

    ``points`` rows are ``{"label", "objectives": {name: value}, "on_frontier"}``
    (already ordered — frontier first); ``objectives`` pairs each objective
    name with its sense (``"max"``/``"min"``), which becomes the column
    header's direction arrow.
    """
    if not objectives:
        raise AnalysisError("a frontier table needs at least one objective")
    headers = [
        "Design point",
        *[
            f"{name} ({'^' if sense == 'max' else 'v'})"
            for name, sense in objectives
        ],
        "Pareto",
    ]
    rows: List[List[object]] = []
    for entry in points:
        values = entry["objectives"]
        missing = [name for name, _ in objectives if name not in values]
        if missing:
            raise AnalysisError(
                f"{entry.get('label', '?')}: missing objective values {missing}"
            )
        rows.append(
            [
                entry["label"],
                *[values[name] for name, _ in objectives],
                "frontier" if entry.get("on_frontier") else "dominated",
            ]
        )
    return format_table(headers, rows, title=title, float_format="{:.4g}")


def format_key_values(title: str, values: Mapping[str, object]) -> str:
    """Render a flat mapping as a two-column table."""
    return format_table(["Quantity", "Value"], list(values.items()), title=title)
