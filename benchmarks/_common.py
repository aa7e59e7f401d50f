"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Besides timing
(via pytest-benchmark), each bench *prints* its reproduction table and
writes it under ``benchmarks/results/`` so the artifacts survive the run —
EXPERIMENTS.md indexes those files against the paper.
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from repro.analysis.parallel import run_sweep
from repro.analysis.sweep import SweepPoint, SweepResult

# Every bench sweeping "per approach" iterates this one tuple: the paper's
# four approaches, in its presentation order.
from repro.core.approaches import PAPER_APPROACHES as APPROACHES
from repro.metrics.report import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def sweep_grid(
    xs: Sequence[Any],
    make_point: Callable[[str, Any], SweepPoint],
    approaches: Sequence[str] = APPROACHES,
) -> Dict[Tuple[str, Any], SweepResult]:
    """Run an approach × x grid through the parallel sweep engine.

    ``make_point(approach, x)`` builds each seeded :class:`SweepPoint`; the
    fan-out order is approaches-major, matching the serial double loop the
    tradeoff benches used to spell out.  Returns ``{(approach, x): result}``
    — results are seed-deterministic, so identical to a serial run.
    """
    grid = [(approach, x) for approach in approaches for x in xs]
    results = run_sweep([make_point(approach, x) for approach, x in grid])
    return dict(zip(grid, results))


def emit(name: str, text: str, directory: pathlib.Path = RESULTS_DIR) -> None:
    """Print a reproduction artifact and persist it (to the results dir by default)."""
    print()
    print(text)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_table(
    name: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
    notes: Sequence[str] = (),
    directory: pathlib.Path = RESULTS_DIR,
) -> str:
    """Format, print, and persist one table; returns the rendered text."""
    text = format_table(headers, rows, title=title)
    if notes:
        text += "\n" + "\n".join(notes)
    emit(name, text, directory)
    return text
