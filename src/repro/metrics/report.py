"""Plain-text table rendering for benches and examples.

The benchmark harness prints the same rows the paper reports (Table I and
the trade-off series); this module renders them as aligned ASCII tables so
``pytest benchmarks/ --benchmark-only`` output is directly comparable with
the paper.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def format_cell(value: Any) -> str:
    """Human-friendly cell rendering (floats get 3 significant decimals)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    rendered_rows: List[List[str]] = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(separator)
    parts.append(line(list(headers)))
    parts.append(separator)
    for row in rendered_rows:
        parts.append(line(row))
    parts.append(separator)
    return "\n".join(parts)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Render an (x, y) series as one table — the textual form of a figure."""
    return format_table(("x", name), zip(xs, ys))

