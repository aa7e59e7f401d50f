#!/usr/bin/env python
"""The paper's motivating example (Section II, Fig. 1), step by step.

Bob, a CompuMe sales rep, starts a transaction across the customers and
inventory databases.  Mid-transaction his operational-region credential is
revoked and the tightened policy P' propagates to only *one* of the two
databases (eventual consistency).  The script runs Bob's transaction under
each enforcement approach and audits whether any committed run relied on
the revoked credential — the "unsafe authorization" of Fig. 1.

Run:  python examples/compume_scenario.py
"""

from repro.core.consistency import ConsistencyLevel
from repro.metrics.report import format_table
from repro.workloads.scenarios import (
    CUSTOMERS_DB,
    INVENTORY_DB,
    audit_committed_revocations,
    run_bob_with,
)


def main() -> None:
    print(__doc__)
    rows = []
    for approach in ("deferred", "punctual", "incremental", "continuous"):
        outcome, scenario = run_bob_with(
            approach, ConsistencyLevel.VIEW, seed=2, revoke_at_time=6.0
        )
        offenders = audit_committed_revocations(scenario, outcome.txn_id)
        versions = {
            name: list(scenario.cluster.server(name).policies.versions().values())[0]
            for name in (CUSTOMERS_DB, INVENTORY_DB)
        }
        rows.append(
            [
                approach,
                outcome.committed,
                outcome.abort_reason.value if outcome.abort_reason else "-",
                "UNSAFE" if offenders else "safe",
                f"P' v{versions[CUSTOMERS_DB]} / P v{versions[INVENTORY_DB]}",
            ]
        )

    print(
        format_table(
            ["approach", "committed", "abort reason", "safety audit", "policy at cust/inv"],
            rows,
            title="Bob's transaction during the Fig. 1 incident (view consistency)",
        )
    )
    print()
    print("Incremental Punctual never re-evaluates proofs after a query is")
    print("granted, so Bob's read capability (minted before his reassignment)")
    print("carries the transaction to an UNSAFE commit.  The re-validating")
    print("approaches (Deferred, Punctual at commit; Continuous per query)")
    print("catch the revocation and roll the transaction back.")


if __name__ == "__main__":
    main()
