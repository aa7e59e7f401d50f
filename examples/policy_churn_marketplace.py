#!/usr/bin/env python
"""A marketplace under policy churn: which approach holds up?

Simulates a stream of order transactions (reads + stock decrements) across
a five-server cloud while the marketplace's policy administrator keeps
republishing the authorization policy — alternately tightening it to
require a 'senior' role and relaxing it back to 'member'.  Each enforcement
approach processes the same workload; the table compares commit rates,
latency, wasted (rolled-back) work, and protocol cost.

This is the experiment the paper's Section VI-B reasons about
qualitatively and the authors list as ongoing simulation work.

Run:  python examples/policy_churn_marketplace.py
"""

from repro.analysis.sweep import SweepPoint, compare_approaches
from repro.core.consistency import ConsistencyLevel
from repro.metrics.report import format_table


def main() -> None:
    print(__doc__)
    base = SweepPoint(
        approach="deferred",
        consistency=ConsistencyLevel.VIEW,
        n_servers=5,
        txn_length=5,
        n_transactions=40,
        update_interval=25.0,
        update_mode="alternate",
        read_fraction=0.6,
        seed=77,
    )
    results = compare_approaches(base)

    rows = []
    for approach in ("deferred", "punctual", "incremental", "continuous"):
        summary = results[approach].summary
        rows.append(
            [
                approach,
                f"{summary.commit_rate:.0%}",
                round(summary.mean_latency, 1),
                round(summary.total_wasted_time, 1),
                round(summary.mean_queries_before_abort, 2),
                round(summary.mean_messages, 1),
                round(summary.mean_proofs, 1),
            ]
        )
    print(
        format_table(
            [
                "approach",
                "commit rate",
                "mean latency",
                "wasted time",
                "queries before abort",
                "msgs/txn",
                "proofs/txn",
            ],
            rows,
            title="40 order transactions, policy update every ~25 time units",
        )
    )
    print()
    print("Early-detection approaches (Punctual/Incremental/Continuous) abort")
    print("doomed transactions after fewer executed queries than Deferred,")
    print("which always runs to completion before discovering the denial.")


if __name__ == "__main__":
    main()
