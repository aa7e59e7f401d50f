"""Soak test: a long mixed run with churn and faults, invariants at the end.

One simulation, everything at once: four approaches interleaved over a
shared cluster, concurrent submissions through two TMs, benign and
restricting policy updates, a credential revocation, a server
crash/recovery, and a message-loss window.  At the end we assert the
global invariants that must survive *any* schedule:

* conflict-serializability of the committed schedule,
* per-item value conservation against the set of committed writers,
* no leaked workspaces or locks,
* φ-trust of every committed transaction's final view,
* coordinator/participant decision agreement.
"""

import pytest

from repro.chaos.nemesis import Nemesis
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.trusted import check_trusted
from repro.db.serializability import check_conflict_serializable
from repro.db.recovery import analyze
from repro.db.wal import LogRecordType
from repro.sim.network import UniformLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import PolicyUpdateProcess, revoke_at

VIEW = ConsistencyLevel.VIEW
APPROACHES = ("deferred", "punctual", "incremental", "continuous")


@pytest.mark.parametrize("seed", [5, 17])
def test_soak_mixed_workload(seed):
    config = CloudConfig(
        latency=UniformLatency(0.5, 1.5),
        request_timeout=40.0,
        replication_delay=(2.0, 15.0),
    )
    cluster = build_cluster(
        n_servers=4, items_per_server=6, seed=seed, config=config, n_tms=2
    )
    alice = cluster.issue_role_credential("alice")
    bob = cluster.issue_role_credential("bob")

    # Background churn: benign updates every ~20 units.
    PolicyUpdateProcess(
        cluster, "app", interval=20.0, rng=cluster.rng.stream("soak-updates"),
        mode="benign", count=12,
    ).start()
    # Bob's credential dies mid-run.
    revoke_at(cluster, bob.issuer, bob.cred_id, at_time=60.0)
    # Faults: one crash/recovery and one lossy window.
    plan = FaultPlan(
        (
            FaultSpec("crash", at=45.0, node="s3", down_for=10.0),
            FaultSpec("drop_rate", at=80.0, duration=30.0, rate=0.03),
        )
    )
    Nemesis(cluster, plan).install()

    # 24 transactions, mixed approaches/users, two TMs, paced arrivals.
    def driver():
        rng = cluster.rng.stream("soak-workload")
        processes = []
        for index in range(24):
            user, credential = ("alice", alice) if index % 3 else ("bob", bob)
            approach = APPROACHES[index % len(APPROACHES)]
            items = []
            for _ in range(3):
                server = rng.choice(list(cluster.server_names()))
                hosted = cluster.catalog.items_on(server)
                items.append(rng.choice(list(hosted)))
            queries = []
            for position, item in enumerate(dict.fromkeys(items)):
                if position == 0:
                    queries.append(
                        Query.write(f"soak{index}-q{position}", deltas={item: -1})
                    )
                else:
                    queries.append(Query.read(f"soak{index}-q{position}", [item]))
            txn = Transaction(f"soak{index}", user, tuple(queries), (credential,))
            tm = cluster.tms[index % 2]
            processes.append(tm.submit(txn, __import__("repro.core.approaches", fromlist=["get_approach"]).get_approach(approach), VIEW))
            yield cluster.env.timeout(rng.uniform(2.0, 8.0))
        yield cluster.env.all_of(processes)

    done = cluster.env.process(driver(), name="soak-driver")
    cluster.env.run(until=done)
    cluster.run(until=cluster.env.now + 150.0)  # drain stragglers

    outcomes = [o for tm in cluster.tms for o in tm.outcomes]
    assert len(outcomes) == 24
    committed_ids = {o.txn_id for o in outcomes if o.committed}
    assert committed_ids, "the soak run should commit something"
    # What was injected: s3 down over [45, 55), messages lost only in [80, 110).
    injected = [
        (record.time, record.category, record.get("node"))
        for record in cluster.tracer
        if record.category in ("fault.crash", "fault.recover")
    ]
    assert injected == [(45.0, "fault.crash", "s3"), (55.0, "fault.recover", "s3")]
    drops = cluster.tracer.select("net.drop")
    assert drops and all(80.0 <= record.time < 110.0 for record in drops)

    # 1. Resolve any in-doubt participants first (lost decisions during the
    #    crash / lossy window): crash+recover triggers the termination
    #    protocol, after which participant state reflects the decisions.
    for name in cluster.server_names():
        server = cluster.server(name)
        if analyze(server.wal).in_doubt:
            server.crash()
            server.recover()
    cluster.run(until=cluster.env.now + 150.0)
    for name in cluster.server_names():
        assert cluster.server(name).storage.active_transactions() == ()

    # 2. Serializability of the committed schedule.
    engines = [cluster.server(name).storage for name in cluster.server_names()]
    ok, cycle, _edges = check_conflict_serializable(engines, committed_ids)
    assert ok, f"non-serializable committed schedule: {cycle}"

    # 3. Value conservation: each committed writer decremented its item once.
    decrements = {}
    for tm in cluster.tms:
        for txn_id, ctx in tm.finished.items():
            if ctx.decision is None or ctx.decision.value != "commit":
                continue
            for query in ctx.txn.queries:
                for effect in query.effects:
                    decrements[effect.key] = decrements.get(effect.key, 0) + 1
    for name in cluster.server_names():
        for item in cluster.catalog.items_on(name):
            expected = 100.0 - decrements.get(item, 0)
            assert cluster.server(name).storage.committed_value(item) == expected, item

    # 4. Trust of committed views (skip transactions with empty views:
    #    incremental/continuous record proofs in all cases they commit).
    for tm in cluster.tms:
        for txn_id in committed_ids:
            ctx = tm.finished.get(txn_id)
            if ctx is None:
                continue
            proofs = ctx.final_proofs()
            if not proofs:
                continue
            report = check_trusted(proofs, VIEW, ctx.started_at, ctx.finished_at)
            assert report.trusted, (txn_id, report.failures)

    # 5. Decision agreement coordinator vs participants.
    for tm in cluster.tms:
        for txn_id, ctx in tm.finished.items():
            tm_decision = tm.wal.decision_for(txn_id)
            for name in cluster.server_names():
                participant = cluster.server(name).wal.decision_for(txn_id)
                if participant is None or tm_decision is None:
                    continue
                assert participant.record_type is tm_decision.record_type, txn_id
