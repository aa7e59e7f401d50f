"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Run one transaction under every approach × consistency level and print
    the cost table (the quickstart, without writing any code).
``table1``
    Regenerate the paper's Table I regimes and print measured vs formula.
``quadrants``
    Measure the §VI-B decision quadrants (slow: several simulations).
``bob``
    Run the Fig. 1 motivating scenario under every approach.

Every command accepts ``--seed`` and prints plain-text tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.complexity import TABLE1, max_messages, max_proofs
from repro.core.consistency import ConsistencyLevel
from repro.metrics.report import format_table
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

APPROACHES = ("deferred", "punctual", "incremental", "continuous")


def _demo(seed: int) -> int:
    rows = []
    for level in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL):
        for approach in APPROACHES:
            cluster = build_cluster(n_servers=3, seed=seed)
            credential = cluster.issue_role_credential("alice")
            txn = Transaction(
                f"demo-{approach}-{level.value}",
                "alice",
                queries=(
                    Query.read("q1", ["s1/x1"]),
                    Query.write("q2", deltas={"s2/x1": -10}),
                    Query.read("q3", ["s3/x1"]),
                ),
                credentials=(credential,),
            )
            outcome = cluster.run_transaction(txn, approach, level)
            cluster.close()  # only the outcome is used
            rows.append(
                [
                    approach,
                    level.value,
                    outcome.committed,
                    outcome.protocol_messages,
                    outcome.proof_evaluations,
                    round(outcome.latency, 2),
                ]
            )
    print(
        format_table(
            ["approach", "consistency", "committed", "messages", "proofs", "latency"],
            rows,
            title="repro demo: one 3-query transaction, three servers",
        )
    )
    return 0


def _table1(seed: int) -> int:
    from repro.workloads.generator import one_query_per_server

    n = 4
    rows = []
    for level in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL):
        for approach in APPROACHES:
            cluster = build_cluster(n_servers=n, seed=seed)
            credential = cluster.issue_role_credential("alice")
            txn = one_query_per_server(
                cluster.catalog, "alice", [credential], txn_id=f"t1-{approach}-{level.value}"
            )
            outcome = cluster.run_transaction(txn, approach, level)
            cluster.close()  # only the outcome is used
            r = max(1, outcome.commit_rounds)
            entry = TABLE1[(approach, level)]
            rows.append(
                [
                    approach,
                    level.value,
                    outcome.protocol_messages,
                    f"{entry.messages_text} = {max_messages(approach, level, n, n, r)}",
                    outcome.proof_evaluations,
                    f"{entry.proofs_text} = {max_proofs(approach, level, n, n, r)}",
                ]
            )
    print(
        format_table(
            ["approach", "consistency", "msgs", "Table I", "proofs", "Table I"],
            rows,
            title=f"Table I regime (n = u = {n}, steady state)",
        )
    )
    return 0


def _quadrants(seed: int) -> int:
    from repro.analysis.tradeoff import empirical_quadrants

    quadrants = empirical_quadrants(n_transactions=15, seeds=(seed, seed + 1))
    rows = [
        [
            quadrant.name,
            quadrant.recommended,
            quadrant.pair_winner(),
            "agree" if quadrant.pair_winner() == quadrant.recommended else "differ",
        ]
        for quadrant in quadrants
    ]
    print(
        format_table(
            ["regime", "paper recommends", "measured winner", "verdict"],
            rows,
            title="Section VI-B quadrants",
        )
    )
    return 0


def _bob(seed: int) -> int:
    from repro.workloads.scenarios import audit_committed_revocations, run_bob_with

    rows = []
    for approach in APPROACHES:
        outcome, scenario = run_bob_with(approach, ConsistencyLevel.VIEW, seed=seed)
        offenders = audit_committed_revocations(scenario, outcome.txn_id)
        rows.append(
            [
                approach,
                outcome.committed,
                outcome.abort_reason.value if outcome.abort_reason else "-",
                "UNSAFE" if offenders else "safe",
            ]
        )
    print(
        format_table(
            ["approach", "committed", "abort reason", "audit"],
            rows,
            title="Fig. 1: Bob's transaction during the incident",
        )
    )
    return 0


COMMANDS = {
    "demo": _demo,
    "table1": _table1,
    "quadrants": _quadrants,
    "bob": _bob,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Enforcing Policy and Data Consistency of Cloud Transactions' (ICDCS 2011)",
    )
    parser.add_argument("command", choices=sorted(COMMANDS), help="what to run")
    parser.add_argument("--seed", type=int, default=2, help="master RNG seed")
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args.seed)


if __name__ == "__main__":
    sys.exit(main())
