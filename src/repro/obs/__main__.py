"""``python -m repro.obs`` — span tracing over smoke workloads.

Runs the same seeded open-loop workloads as ``python -m repro.verify``
(:func:`repro.workloads.scenarios.run_smoke_workload`, benign policy churn
in flight) with span recording on, then renders what was captured:

* ``spans`` — per-trace summary plus ASCII waterfalls;
* ``critical-path`` — exclusive-time latency attribution per
  (approach, consistency) cell, with the reconciliation invariant checked;
* ``flame`` — a folded-stack flamegraph of exclusive time;
* ``export`` — the run as OpenMetrics text or JSONL spans.

Every subcommand exits non-zero if any sampled trace is malformed, so the
CLI doubles as a smoke gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional, Sequence

from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.metrics.report import format_table
from repro.obs.critical import CATEGORIES, aggregate_grid, attribute_latency
from repro.obs.crosscheck import crosscheck_spans
from repro.obs.export import spans_to_jsonl
from repro.obs.openmetrics import render_openmetrics
from repro.obs.render import render_flame, render_waterfall
from repro.obs.spans import check_all_trees
from repro.workloads.scenarios import run_smoke_workload
from repro.workloads.testbed import Cluster

#: Reconciliation tolerance: exclusive times must telescope to latency.
TOLERANCE = 1e-6


def _gate(cluster: Cluster) -> List[str]:
    """Well-formedness + crosscheck problems for one finished cluster."""
    problems = check_all_trees(cluster.obs)
    problems.extend(crosscheck_spans(cluster.obs, cluster.tracer))
    return problems


def _report_problems(problems: Sequence[str]) -> None:
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)


def cmd_spans(args: argparse.Namespace) -> int:
    cluster = run_smoke_workload(
        args.approach, ConsistencyLevel(args.consistency), args.seed, args.transactions,
        args.servers, args.update_interval, args.sample_rate,
    )
    recorder = cluster.obs
    rows: List[Sequence[Any]] = []
    for trace_id in recorder.traces():
        tree = recorder.tree(trace_id)
        root = tree.root
        if root is not None:
            outcome = "commit" if root.attrs.get("committed") else (
                str(root.attrs.get("abort_reason") or "abort")
            )
        else:
            outcome = "-"
        rows.append(
            (
                trace_id,
                len(tree.spans),
                f"{root.duration:.3f}" if root is not None else "-",
                outcome,
            )
        )
    print(
        format_table(
            ("trace", "spans", "duration", "outcome"),
            rows,
            title=f"{args.approach}/{args.consistency} traces (seed {args.seed})",
        )
    )
    shown = [args.trace] if args.trace else list(recorder.traces())[: args.limit]
    for trace_id in shown:
        if not recorder.sampled(trace_id) or not recorder.spans(trace_id):
            print(f"trace {trace_id!r}: not sampled / no spans", file=sys.stderr)
            return 2
        print()
        print(render_waterfall(recorder.tree(trace_id), width=args.width))
    problems = _gate(cluster)
    _report_problems(problems)
    return 1 if problems else 0


def cmd_critical_path(args: argparse.Namespace) -> int:
    approaches = [args.approach] if args.approach else list(PAPER_APPROACHES)
    levels = [args.consistency] if args.consistency else list(CONSISTENCY_LEVELS)
    rows: List[Sequence[Any]] = []
    problems: List[str] = []
    worst_delta = 0.0
    for approach in approaches:
        for level_name in levels:
            cluster = run_smoke_workload(
                approach, ConsistencyLevel(level_name), args.seed, args.transactions,
                args.servers, args.update_interval, args.sample_rate,
            )
            problems.extend(_gate(cluster))
            recorder = cluster.obs
            for trace_id in recorder.traces():
                tree = recorder.tree(trace_id)
                if tree.root is None:
                    continue
                attribution = attribute_latency(tree)
                delta = abs(attribution.exclusive_sum - attribution.total)
                worst_delta = max(worst_delta, delta)
                if delta > TOLERANCE:
                    problems.append(
                        f"{trace_id}: exclusive sum {attribution.exclusive_sum} "
                        f"!= latency {attribution.total}"
                    )
            for cell in aggregate_grid(recorder):
                rows.append(
                    (
                        cell.approach,
                        cell.consistency,
                        cell.count,
                        f"{cell.mean_latency:.3f}",
                        *(
                            f"{cell.mean_by_category.get(c, 0.0):.3f}"
                            for c in CATEGORIES
                        ),
                    )
                )
    print(
        format_table(
            ("approach", "consistency", "txns", "latency", *CATEGORIES),
            rows,
            title=f"critical-path attribution (seed {args.seed}, mean seconds)",
        )
    )
    print(f"reconciliation: worst |sum(exclusive) - latency| = {worst_delta:.2e}")
    _report_problems(problems)
    return 1 if problems else 0


def cmd_flame(args: argparse.Namespace) -> int:
    cluster = run_smoke_workload(
        args.approach, ConsistencyLevel(args.consistency), args.seed, args.transactions,
        args.servers, args.update_interval, args.sample_rate,
    )
    print(render_flame(cluster.obs, width=args.width))
    problems = _gate(cluster)
    _report_problems(problems)
    return 1 if problems else 0


def cmd_export(args: argparse.Namespace) -> int:
    cluster = run_smoke_workload(
        args.approach, ConsistencyLevel(args.consistency), args.seed, args.transactions,
        args.servers, args.update_interval, args.sample_rate,
    )
    if args.format == "openmetrics":
        text = render_openmetrics(cluster.metrics, cluster.obs)
    else:
        spans = [
            span
            for trace_id in cluster.obs.traces()
            for span in cluster.obs.spans(trace_id)
        ]
        text = spans_to_jsonl(spans)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    problems = _gate(cluster)
    _report_problems(problems)
    return 1 if problems else 0


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_workload_flags(parser: argparse.ArgumentParser, pick_one: bool) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--transactions", type=int, default=10)
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument(
        "--update-interval", type=float, default=40.0,
        help="benign policy-churn interval (0 disables churn)",
    )
    parser.add_argument(
        "--sample-rate", type=_rate, default=1.0,
        help="fraction of transactions whose spans are recorded",
    )
    if pick_one:
        parser.add_argument("--approach", choices=PAPER_APPROACHES, default="continuous")
        parser.add_argument("--consistency", choices=CONSISTENCY_LEVELS, default="view")
    else:
        parser.add_argument(
            "--approach", choices=PAPER_APPROACHES, default=None,
            help="restrict to one approach (default: all four)",
        )
        parser.add_argument(
            "--consistency", choices=CONSISTENCY_LEVELS, default=None,
            help="restrict to one consistency level (default: both)",
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Causal span tracing: record, attribute, render, export.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    spans = subparsers.add_parser("spans", help="per-trace summary + waterfalls")
    _add_workload_flags(spans, pick_one=True)
    spans.add_argument("--trace", default=None, help="render only this txn id")
    spans.add_argument("--limit", type=int, default=2, help="waterfalls to render")
    spans.add_argument("--width", type=int, default=48)
    spans.set_defaults(func=cmd_spans)

    critical = subparsers.add_parser(
        "critical-path", help="latency attribution per (approach, consistency)"
    )
    _add_workload_flags(critical, pick_one=False)
    critical.set_defaults(func=cmd_critical_path)

    flame = subparsers.add_parser("flame", help="folded-stack flamegraph")
    _add_workload_flags(flame, pick_one=True)
    flame.add_argument("--width", type=int, default=40)
    flame.set_defaults(func=cmd_flame)

    export = subparsers.add_parser("export", help="OpenMetrics or JSONL dump")
    _add_workload_flags(export, pick_one=True)
    export.add_argument(
        "--format", choices=("openmetrics", "jsonl"), default="openmetrics"
    )
    export.add_argument("--out", default=None, help="write to PATH (default stdout)")
    export.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
