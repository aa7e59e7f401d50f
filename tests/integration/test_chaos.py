"""Chaos: random message loss must never break safety.

With a lossy network, requests time out, decisions can be lost, and
participants may be left in doubt — but committed data must stay atomic
and every surviving commit must still be trusted.  These tests run
workloads at various drop rates and check safety (not liveness, which a
lossy network legitimately hurts).
"""

import math

import pytest

from repro.chaos.nemesis import Nemesis
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.trusted import check_trusted
from repro.db.recovery import analyze
from repro.db.wal import LogRecordType
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

VIEW = ConsistencyLevel.VIEW


def lossy_cluster(drop_rate, seed):
    """A cluster whose every message is lost with ``drop_rate``, for the whole run."""
    config = CloudConfig(latency=FixedLatency(1.0), request_timeout=15.0)
    cluster = build_cluster(n_servers=3, seed=seed, config=config)
    loss = FaultSpec("drop_rate", duration=math.inf, rate=drop_rate)
    Nemesis(cluster, FaultPlan((loss,))).install()
    return cluster


def assert_loss_was_injected(cluster):
    drops = cluster.tracer.select("net.drop")
    assert drops and {record.get("reason") for record in drops} == {"chaos"}
    assert cluster.metrics.faults.drops_by_reason["chaos"] == len(drops)


def write_txn(credential, txn_id):
    return Transaction(
        txn_id,
        "alice",
        queries=(
            Query.write(f"{txn_id}-q1", deltas={"s1/x1": -1}),
            Query.write(f"{txn_id}-q2", deltas={"s2/x1": -1}),
            Query.write(f"{txn_id}-q3", deltas={"s3/x1": -1}),
        ),
        credentials=(credential,),
    )


@pytest.mark.parametrize("drop_rate", [0.02, 0.05, 0.10])
@pytest.mark.parametrize("approach", ["deferred", "punctual"])
def test_lossy_network_preserves_atomicity(drop_rate, approach):
    """Every item ends at 100 - (commits that included it); a transaction
    that the coordinator aborted must leave all three items untouched
    once in-doubt participants resolve."""
    cluster = lossy_cluster(drop_rate, seed=int(drop_rate * 1000))
    credential = cluster.issue_role_credential("alice")
    outcomes = []
    for index in range(6):
        txn = write_txn(credential, f"c{index}")
        process = cluster.submit(txn, approach, VIEW)
        outcomes.append(cluster.env.run(until=process))
    cluster.run()  # drain stragglers and recovery chatter
    assert_loss_was_injected(cluster)

    # Resolve any in-doubt participants through crash+recover (termination
    # protocol): afterwards their state must match the coordinator log.
    for name in cluster.server_names():
        server = cluster.server(name)
        if analyze(server.wal).in_doubt:
            server.crash()
            server.recover()
    cluster.run()

    for index, outcome in enumerate(outcomes):
        txn_id = f"c{index}"
        tm_decision = cluster.tm.wal.decision_for(txn_id)
        for name in cluster.server_names():
            server = cluster.server(name)
            participant_decision = server.wal.decision_for(txn_id)
            if participant_decision is None:
                continue  # never prepared: nothing applied, fine
            if tm_decision is None:
                # Coordinator never decided ⇒ presumed abort everywhere.
                assert participant_decision.record_type is LogRecordType.ABORT
            else:
                assert participant_decision.record_type is tm_decision.record_type

    # Value conservation: each committed txn decremented each item once.
    commits = sum(1 for outcome in outcomes if outcome.committed)
    for name in cluster.server_names():
        item = f"{name}/x1"
        assert cluster.server(name).storage.committed_value(item) == 100.0 - commits


def test_commits_under_loss_are_still_trusted():
    cluster = lossy_cluster(0.05, seed=77)
    credential = cluster.issue_role_credential("alice")
    committed = 0
    for index in range(6):
        txn = write_txn(credential, f"t{index}")
        process = cluster.submit(txn, "punctual", VIEW)
        outcome = cluster.env.run(until=process)
        if outcome.committed:
            committed += 1
            ctx = cluster.tm.finished[txn.txn_id]
            report = check_trusted(
                ctx.final_proofs(), VIEW, ctx.started_at, ctx.finished_at
            )
            assert report.trusted, report.failures
    # The test is about safety; still, something should usually commit.
    assert committed >= 1
    assert_loss_was_injected(cluster)


def test_no_locks_leak_after_lossy_run():
    cluster = lossy_cluster(0.08, seed=13)
    credential = cluster.issue_role_credential("alice")
    for index in range(5):
        process = cluster.submit(write_txn(credential, f"l{index}"), "deferred", VIEW)
        cluster.env.run(until=process)
    cluster.run()
    assert_loss_was_injected(cluster)
    for name in cluster.server_names():
        server = cluster.server(name)
        item = f"{name}/x1"
        holders = server.locks.holders(item) if server.locks else ()
        # A participant whose decision was dropped may hold locks until its
        # in-doubt state resolves; trigger recovery and re-check.
        if holders:
            server.crash()
            server.recover()
    cluster.run()
    for name in cluster.server_names():
        server = cluster.server(name)
        assert server.storage.active_transactions() == ()
