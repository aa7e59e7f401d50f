"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def network(env):
    """A network with deterministic unit latency."""
    return Network(env, Metrics(), latency=FixedLatency(1.0))


@pytest.fixture
def fixed_config():
    """Cloud config with fixed latency for deterministic message timing."""
    return CloudConfig(latency=FixedLatency(1.0))


@pytest.fixture
def cluster(fixed_config):
    """Canonical 3-server cluster with deterministic latency."""
    return build_cluster(n_servers=3, seed=42, config=fixed_config)


@pytest.fixture
def alice_cred(cluster):
    """A member-role credential for user alice."""
    return cluster.issue_role_credential("alice")


def simple_txn(txn_id="t1", user="alice", credentials=(), write_delta=-5.0):
    """A read-write-read transaction across the canonical s1/s2/s3 layout."""
    return Transaction(
        txn_id,
        user,
        queries=(
            Query.read(f"{txn_id}-q1", ["s1/x1"]),
            Query.write(f"{txn_id}-q2", deltas={"s2/x1": write_delta}),
            Query.read(f"{txn_id}-q3", ["s3/x1"]),
        ),
        credentials=tuple(credentials),
    )


@pytest.fixture
def run_simple(cluster, alice_cred):
    """Callable running the simple transaction under a given approach."""

    def _run(approach, consistency=ConsistencyLevel.VIEW, txn_id="t1"):
        txn = simple_txn(txn_id=txn_id, credentials=[alice_cred])
        return cluster.run_transaction(txn, approach, consistency)

    return _run
