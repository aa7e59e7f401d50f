"""``python -m repro.verify`` — run the trace sanitizer over smoke workloads.

Builds seeded clusters, runs an open-loop workload under every requested
(approach, consistency) pair with benign policy churn in flight, then
checks the recorded trace against every conformance invariant.  Exits
non-zero if any run produced violations — this is the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.metrics.report import format_table
from repro.verify.conformance import CHECKS, check_run
from repro.verify.events import collect_run
from repro.verify.report import ALL_CODES


def run_one(
    approach: str,
    level: ConsistencyLevel,
    seed: int,
    transactions: int,
    servers: int,
    update_interval: Optional[float],
) -> Dict[str, Any]:
    """One smoke workload under the sanitizer; returns a result row."""
    from repro.workloads.scenarios import run_smoke_workload

    cluster = run_smoke_workload(approach, level, seed, transactions, servers, update_interval)
    run = collect_run(cluster)
    report = check_run(run)
    cluster.metrics.verification.on_report(report)
    cluster.close()  # only the row leaves
    committed = sum(1 for meta in run.transactions.values() if meta.committed)
    return {
        "approach": approach,
        "consistency": level.value,
        "transactions": len(run.transactions),
        "committed": committed,
        "events": report.events_checked,
        "violations": len(report.violations),
        "codes": report.codes(),
        "report": report,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Trace sanitizer: protocol-conformance smoke runs.",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--transactions", type=int, default=10)
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument(
        "--update-interval", type=float, default=40.0,
        help="benign policy-churn interval (0 disables churn)",
    )
    parser.add_argument(
        "--approach", choices=PAPER_APPROACHES, default=None,
        help="restrict to one approach (default: all four)",
    )
    parser.add_argument(
        "--consistency", choices=CONSISTENCY_LEVELS, default=None,
        help="restrict to one consistency level (default: both)",
    )
    parser.add_argument("--json", type=str, default=None, help="write results to PATH")
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print every check and violation code, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        print("checks: " + ", ".join(name for name, _ in CHECKS))
        for code in ALL_CODES:
            print(f"  {code}")
        return 0

    approaches = [args.approach] if args.approach else list(PAPER_APPROACHES)
    levels = [args.consistency] if args.consistency else list(CONSISTENCY_LEVELS)

    rows: List[Sequence[Any]] = []
    results: List[Dict[str, Any]] = []
    failed = False
    for approach in approaches:
        for level_name in levels:
            result = run_one(
                approach,
                ConsistencyLevel(level_name),
                seed=args.seed,
                transactions=args.transactions,
                servers=args.servers,
                update_interval=args.update_interval,
            )
            results.append(result)
            rows.append(
                (
                    result["approach"],
                    result["consistency"],
                    result["transactions"],
                    result["committed"],
                    result["events"],
                    result["violations"],
                )
            )
            if result["violations"]:
                failed = True
                print(result["report"].format())

    print(
        format_table(
            ("approach", "consistency", "txns", "committed", "events", "violations"),
            rows,
            title="trace sanitizer smoke runs",
        )
    )
    if args.json:
        payload = [
            {key: value for key, value in result.items() if key != "report"}
            for result in results
        ]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    if failed:
        print("FAIL: conformance violations found", file=sys.stderr)
        return 1
    print("OK: no conformance violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
