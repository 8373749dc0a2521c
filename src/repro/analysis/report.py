"""Plain-text rendering helpers shared by the experiment renderers and examples."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

__all__ = ["geometric_mean", "format_table", "render_series", "format_number"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the aggregation Figures 6-7 use)."""
    values = [float(value) for value in values]
    if not values:
        return 0.0
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def format_number(value: object, precision: int = 3) -> str:
    """Render a number compactly (scientific only when needed)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int,)):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e6 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:,.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as an aligned plain-text table."""
    rendered_rows = [[format_number(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[index]) for index, cell in enumerate(cells))

    lines = [render_row([str(header) for header in headers])]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rendered_rows)
    return "\n".join(lines)


def render_series(series: Mapping[str, Mapping[object, float]], x_label: str = "x") -> str:
    """Render a {series name: {x: y}} mapping as a table with one row per x.

    Used for the figure reproductions: each series is one line of the paper's
    plot (e.g. one benchmark), each row one x value (e.g. one FIFO depth).
    """
    x_values: list[object] = []
    for points in series.values():
        for x in points:
            if x not in x_values:
                x_values.append(x)
    headers = [x_label] + list(series)
    rows = []
    for x in x_values:
        row: list[object] = [x]
        for name in series:
            row.append(series[name].get(x))
        rows.append(row)
    return format_table(headers, rows)
