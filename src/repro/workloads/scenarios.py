"""Canned scenarios: the paper's motivating example (Fig. 1) and the smoke world.

Bob is a CompuMe sales representative.  The customers database and the
inventory database both enforce CompuMe's policy: a sales rep may read if
assigned to a region and currently located there — or by presenting a
previously issued *read capability*.  Mid-transaction, Bob is reassigned
(his ``OpRegion`` credential is revoked) and the policy is tightened, but
the new policy reaches only some servers (eventual consistency).

The scenario reproduces the unsafe authorization of Section II and lets the
benches show which enforcement approaches admit or reject it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.cloud.config import CloudConfig
from repro.core.approaches import ProofApproach
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import TransactionOutcome
from repro.policy.credentials import CertificateAuthority, Credential
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.transactions.transaction import Query, Transaction
from repro.workloads.generator import WorkloadSpec, poisson_arrivals, uniform_transactions
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.testbed import (
    Cluster,
    DomainSpec,
    ServerSpec,
    assemble_cluster,
    build_cluster,
)
from repro.workloads.updates import PolicyUpdateProcess, revoke_at

#: Node/domain names used by the scenario.
CUSTOMERS_DB = "customers-db"
INVENTORY_DB = "inventory-db"
COMPUME = "compume"


def compume_policy_v1(items: Tuple[str, ...]) -> RuleSet:
    """CompuMe's initial policy (what both databases enforce in Fig. 1).

    Access by proof of (sales_rep ∧ assigned_region ∧ located_in) **or** by
    a previously issued capability credential.
    """
    user, item, region = Variable("U"), Variable("I"), Variable("R")
    granted_on = Variable("J")
    rep_path = (
        Atom("sales_rep", (user,)),
        Atom("assigned_region", (user, region)),
        Atom("located_in", (user, region)),
        Atom("item", (item,)),
    )
    rules: List[Rule] = [
        Rule(Atom("may_read", (user, item)), rep_path),
        Rule(Atom("may_write", (user, item)), rep_path),
        # A previously issued read credential "indicating that the policy
        # was satisfied" (Fig. 1) opens read access across the domain.
        Rule(
            Atom("may_read", (user, item)),
            (Atom("read_capability", (user, granted_on)), Atom("item", (item,))),
        ),
    ]
    for key in items:
        rules.append(Rule(Atom("item", (key,))))
    return RuleSet(rules)


def compume_policy_v2(items: Tuple[str, ...]) -> RuleSet:
    """The tightened policy P′: capabilities are no longer honoured.

    Only a live (sales_rep ∧ assigned_region ∧ located_in) proof grants
    access — the change CompuMe pushes right after Bob's reassignment.
    """
    return RuleSet(
        rule
        for rule in compume_policy_v1(items)
        if all(atom.predicate != "read_capability" for atom in rule.body)
    )


@dataclass
class BobScenario:
    """A freshly wired CompuMe world, ready to run one Bob transaction."""

    cluster: Cluster
    bob_credentials: Tuple[Credential, ...]
    #: The OpRegion credential that gets revoked mid-transaction.
    region_credential: Credential
    customer_item: str
    inventory_item: str

    def transaction(self, txn_id: str = "bob-txn") -> Transaction:
        """Bob's two-step transaction: read customers, then update inventory."""
        return Transaction(
            txn_id,
            "bob",
            queries=(
                Query.read(f"{txn_id}-q1", [self.customer_item]),
                Query.read(f"{txn_id}-q2", [self.inventory_item]),
            ),
            credentials=self.bob_credentials,
        )

    def inject_midpoint_events(
        self,
        revoke_at_time: float,
        policy_delays: Dict[str, float],
    ) -> None:
        """Schedule the Fig. 1 incident: revocation + partially replicated P′.

        ``policy_delays`` maps server name → replication delay for the new
        policy (e.g. customers-db quickly, inventory-db never during the
        transaction).
        """
        revoke_at(
            self.cluster,
            self.region_credential.issuer,
            self.region_credential.cred_id,
            revoke_at_time,
            reason="Bob reassigned to a different operational region",
        )

        def _publish() -> "Generator":  # noqa: F821
            delay = revoke_at_time - self.cluster.env.now
            if delay > 0:
                yield self.cluster.env.timeout(delay)
            items = (self.customer_item, self.inventory_item)
            self.cluster.publish(
                COMPUME,
                compume_policy_v2(items),
                description="P': drop capability rule",
                delays=policy_delays,
            )

        self.cluster.env.process(_publish(), name="compume-policy-update")


def build_bob_scenario(
    seed: int = 0,
    config: Optional[CloudConfig] = None,
    issue_capabilities: bool = True,
) -> BobScenario:
    """Wire the two-database CompuMe world of Fig. 1."""
    config = config or CloudConfig()
    config.issue_capabilities = issue_capabilities
    customer_item = "customers/acme-account"
    inventory_item = "inventory/laptop-stock"
    servers = [
        ServerSpec(CUSTOMERS_DB, {customer_item: 100.0}, COMPUME),
        ServerSpec(INVENTORY_DB, {inventory_item: 55.0}, COMPUME),
    ]
    domain = DomainSpec(
        COMPUME,
        compume_policy_v1((customer_item, inventory_item)),
        "CompuMe policy P (v1)",
    )
    cluster = assemble_cluster(servers, [domain], seed=seed, config=config)

    compume_ca = cluster.registry.add(CertificateAuthority(f"{COMPUME}-ca"))
    sales_rep = compume_ca.issue("bob", Atom("sales_rep", ("bob",)), issued_at=0.0)
    region = compume_ca.issue("bob", Atom("assigned_region", ("bob", "east")), issued_at=0.0)
    located = compume_ca.issue("bob", Atom("located_in", ("bob", "east")), issued_at=0.0)
    return BobScenario(
        cluster=cluster,
        bob_credentials=(sales_rep, region, located),
        region_credential=region,
        customer_item=customer_item,
        inventory_item=inventory_item,
    )


def run_bob_with(
    approach: Union[str, ProofApproach],
    consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
    seed: int = 0,
    revoke_at_time: float = 6.0,
    inventory_policy_delay: float = 10_000.0,
) -> Tuple[TransactionOutcome, BobScenario]:
    """Run Bob's transaction under an approach with the Fig. 1 incident.

    The customers DB receives P′ almost immediately after the revocation;
    the inventory DB stays on P for the rest of the run (eventual
    consistency at its worst).  Returns the outcome and the scenario for
    inspection.
    """
    scenario = build_bob_scenario(seed=seed)
    scenario.inject_midpoint_events(
        revoke_at_time,
        policy_delays={
            CUSTOMERS_DB: 0.5,
            INVENTORY_DB: inventory_policy_delay,
        },
    )
    txn = scenario.transaction()
    outcome = scenario.cluster.run_transaction(txn, approach, consistency)
    return outcome, scenario


def audit_committed_revocations(scenario: BobScenario, txn_id: str) -> List[str]:
    """Post-hoc safety audit: which credentials backing a *committed*
    transaction's final proofs were revoked before the decision?

    Returns offending credential ids (empty = no revocation unsafety).
    """
    ctx = scenario.cluster.tm.finished.get(txn_id)
    if ctx is None or ctx.decision is None or ctx.decision.value != "commit":
        return []
    offenders: List[str] = []
    decided_at = ctx.finished_at if ctx.finished_at is not None else 0.0
    for proof in ctx.final_proofs():
        for cred_id in proof.credentials_used():
            issuer_name = cred_id.split("/")[0]
            authority = scenario.cluster.registry.get(issuer_name)
            if authority is None:
                continue
            record = authority.revocation(cred_id)
            if record is not None and record.revoked_at <= decided_at:
                if cred_id not in offenders:
                    offenders.append(cred_id)
    return offenders


def run_smoke_workload(
    approach: str,
    level: ConsistencyLevel,
    seed: int,
    transactions: int,
    servers: int,
    update_interval: Optional[float],
    sample_rate: float = 1.0,
) -> Cluster:
    """The seeded smoke world of ``python -m repro.verify`` and ``python -m repro.obs``.

    ``servers`` servers of 4 items each; ``transactions`` uniform 3-query
    transactions (70 % reads) by one credentialed user, arriving as a
    Poisson stream at rate 0.05; benign policy churn every
    ``update_interval`` units while it runs (none when falsy).  Spans are
    recorded for ``sample_rate`` of the transactions.  Returns the finished
    cluster; the caller closes it.
    """
    config = CloudConfig(obs_spans=True, obs_sample_rate=sample_rate)
    cluster = build_cluster(n_servers=servers, items_per_server=4, seed=seed, config=config)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=3, read_fraction=0.7, count=transactions, user="alice")
    txns = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    arrivals = poisson_arrivals(cluster.rng.stream("arrivals"), rate=0.05, count=len(txns))
    if update_interval:
        PolicyUpdateProcess(
            cluster,
            "app",
            interval=update_interval,
            rng=cluster.rng.stream("updates"),
            mode="benign",
            count=max(2, transactions // 3),
        ).start()
    OpenLoopRunner(cluster, approach, level).run(txns, arrivals)
    return cluster
