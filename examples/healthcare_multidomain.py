#!/usr/bin/env python
"""A two-domain clinical workload, with policies written in rule text.

A hospital cloud hosts *clinical* records (governed by the medical-records
administrator) and *billing* accounts (governed by finance).  Dr. Lee runs
cross-domain transactions: read a chart, update the billing ledger.  The
two domains publish policy updates independently; the example shows that a
version change in billing never disturbs clinical consistency checks, and
runs a mid-transaction credential suspension to show commit-time
validation catching it.

Also demonstrates the textual policy language
(`repro.policy.parser.parse_rules`) and outcome export (`repro.metrics.export`).

Run:  python examples/healthcare_multidomain.py
"""

import io

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.export import to_csv
from repro.metrics.report import format_table
from repro.policy.credentials import CertificateAuthority
from repro.policy.parser import parse_rules
from repro.policy.rules import Atom
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import DomainSpec, ServerSpec, assemble_cluster
from repro.workloads.updates import revoke_at

CLINICAL_POLICY = """
# medical-records policy, version 1
may_read(U, I)  :- attending_physician(U), item(I).
may_write(U, I) :- attending_physician(U), item(I).
item(clinical/chart-101).
item(clinical/chart-102).
"""

BILLING_POLICY = """
# finance policy, version 1
may_read(U, I)  :- billing_clerk(U), item(I).
may_read(U, I)  :- attending_physician(U), item(I).
may_write(U, I) :- billing_clerk(U), item(I).
may_write(U, I) :- attending_physician(U), item(I).
item(billing/acct-7).
"""


def build_hospital(seed=3):
    servers = [
        ServerSpec("ward-db", {"clinical/chart-101": 1.0, "clinical/chart-102": 1.0}, "medrec"),
        ServerSpec("billing-db", {"billing/acct-7": 250.0}, "finance"),
    ]
    domains = [
        DomainSpec("medrec", parse_rules(CLINICAL_POLICY), "clinical policy v1"),
        DomainSpec("finance", parse_rules(BILLING_POLICY), "billing policy v1"),
    ]
    cluster = assemble_cluster(servers, domains, seed=seed, config=CloudConfig())
    hospital_ca = cluster.registry.add(CertificateAuthority("hospital-ca"))
    physician = hospital_ca.issue(
        "dr-lee", Atom("attending_physician", ("dr-lee",)), issued_at=0.0
    )
    return cluster, hospital_ca, physician


def rounds_txn(txn_id):
    return Transaction(
        txn_id,
        "dr-lee",
        queries=(
            Query.read(f"{txn_id}-q1", ["clinical/chart-101"]),
            Query.write(f"{txn_id}-q2", deltas={"billing/acct-7": 120.0}),
        ),
    )


def main() -> None:
    print(__doc__)
    rows = []
    outcomes = []

    # 1. Normal rounds: cross-domain transaction commits.
    cluster, _ca, physician = build_hospital()
    txn = Transaction(
        "rounds-1", "dr-lee", rounds_txn("rounds-1").queries, (physician,)
    )
    outcome = cluster.run_transaction(txn, "punctual", ConsistencyLevel.VIEW)
    outcomes.append(outcome)
    rows.append(["normal rounds", "punctual", outcome.committed,
                 outcome.abort_reason.value if outcome.abort_reason else "-"])

    # 2. Mid-transaction suspension: the physician credential is revoked
    #    between the chart read and the billing write.
    cluster, _ca, physician = build_hospital(seed=4)
    revoke_at(cluster, physician.issuer, physician.cred_id, at_time=4.0,
              reason="privileges suspended pending review")
    txn = Transaction(
        "rounds-2", "dr-lee", rounds_txn("rounds-2").queries, (physician,)
    )
    outcome = cluster.run_transaction(txn, "punctual", ConsistencyLevel.VIEW)
    outcomes.append(outcome)
    rows.append(["mid-txn suspension", "punctual", outcome.committed,
                 outcome.abort_reason.value if outcome.abort_reason else "-"])
    assert not outcome.committed

    # 3. Billing policy churns mid-transaction; clinical consistency is
    #    untouched, so the transaction still commits under Incremental.
    cluster, _ca, physician = build_hospital(seed=5)
    from repro.workloads.updates import benign_successor

    def churn():
        yield cluster.env.timeout(2.0)
        cluster.publish("finance",
                        benign_successor(cluster.admin("finance").current),
                        delays={"billing-db": 0.5, "ward-db": 9999.0})

    cluster.env.process(churn())
    txn = Transaction(
        "rounds-3", "dr-lee",
        queries=(
            Query.read("rounds-3-q1", ["clinical/chart-101"]),
            Query.read("rounds-3-q2", ["clinical/chart-102"]),
        ),
        credentials=(physician,),
    )
    outcome = cluster.run_transaction(txn, "incremental", ConsistencyLevel.VIEW)
    outcomes.append(outcome)
    rows.append(["billing churn, clinical txn", "incremental", outcome.committed,
                 outcome.abort_reason.value if outcome.abort_reason else "-"])

    print(format_table(
        ["scenario", "approach", "committed", "abort reason"],
        rows,
        title="Hospital cloud: two administrative domains",
    ))
    print()
    print("Exported outcomes (CSV):")
    print(to_csv(outcomes))


if __name__ == "__main__":
    main()
