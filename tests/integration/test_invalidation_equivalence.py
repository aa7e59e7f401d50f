"""Predicate-precise invalidation's safety contract, end to end.

Which cache entries survive a policy install may never change a verdict, a
vote, a commit decision, a latency, or a Table I counter.  Under a fixed
seed a default run — installs keep every entry the rule diff provably
cannot affect — must therefore produce the same ``TransactionOutcome``
sequence as a run with every proof derived from scratch (the ``uncached``
fixture, the strongest oracle) and as a run where every install takes the
cache's coarse fallback and drops the whole domain, for every approach and
both consistency levels, across benign and restricting policy storms (the
two update shapes the workloads publish).
"""

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel
from repro.policy.proofcache import ProofCache

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(approach, level, *, update_mode="benign", seed=31):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=12.0,
        update_mode=update_mode,
        seed=seed,
    )
    return run_point(point).outcomes


@pytest.fixture
def coarse(monkeypatch):
    """Run ``outcomes`` with every install treated as of unknown provenance
    (no previous version to diff against): the drop-the-domain fallback."""
    precise = ProofCache.invalidate_policy

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(
                ProofCache,
                "invalidate_policy",
                lambda self, policy, previous=None: precise(self, policy),
            )
            return outcomes(*args, **kwargs)

    return run


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_precise_equals_coarse_on_grid(approach, level, coarse, uncached):
    precise = outcomes(approach, level)
    with uncached():
        assert precise == outcomes(approach, level)
    assert precise == coarse(approach, level)


@pytest.mark.parametrize("approach", APPROACHES)
def test_precise_equals_coarse_under_restricting_storm(approach, coarse, uncached):
    # "alternate" publishes guard-rewriting successors: the diff reaches
    # may_read/may_write, so installs must actually drop entries here —
    # and still change nothing observable.
    precise = outcomes(approach, ConsistencyLevel.VIEW, update_mode="alternate")
    with uncached():
        assert precise == outcomes(approach, ConsistencyLevel.VIEW, update_mode="alternate")
    assert precise == coarse(approach, ConsistencyLevel.VIEW, update_mode="alternate")


def test_precise_retains_under_benign_storm():
    # Benign successors only add a version-marker fact, so installs should
    # retain entries (the whole point of diffing them); retention must be
    # visible in the counters.
    from repro.policy.policy import PolicyId
    from repro.workloads.generator import WorkloadSpec, uniform_transactions
    from repro.workloads.testbed import build_cluster
    from repro.workloads.updates import benign_successor

    cluster = build_cluster(n_servers=2, items_per_server=4, seed=31)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=4, read_fraction=1.0, count=4, user="alice")
    transactions = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    for txn in transactions[:2]:
        cluster.run_transaction(txn, "continuous")
    # Publish a benign successor to every server's store directly.
    pid = PolicyId("app")
    for server in cluster.servers.values():
        current = server.policies.current(pid)
        server.policies.apply(current.successor(benign_successor(current)))
    stats = cluster.metrics.proof_cache

    def counts():
        return (stats.hits, stats.misses, stats.invalidations, stats.retentions)

    # Exact, not just positive: the run is seed-deterministic and which
    # entries an install keeps is semantics, so a different count is a
    # different cache.  tests/policy/proofcache_oracle.py gives these too.
    assert counts() == (13, 7, 0, 7)
    for txn in transactions[2:]:
        cluster.run_transaction(txn, "continuous")
    assert counts() == (32, 8, 0, 7)


def test_policy_storm_counters(uncached):
    # A benign successor lands after every transaction (the scale workloads'
    # policy-storm regime): installs re-point the entries their rule diff
    # cannot affect instead of dropping them.  The four counters are
    # seed-deterministic, so another value is a different cache, not noise.
    from repro.workloads.generator import WorkloadSpec, uniform_transactions
    from repro.workloads.testbed import build_cluster
    from repro.workloads.updates import benign_successor

    def run():
        cluster = build_cluster(n_servers=4, items_per_server=6, seed=61)
        credential = cluster.issue_role_credential("alice")
        spec = WorkloadSpec(txn_length=6, read_fraction=0.7, count=40, user="alice")
        transactions = uniform_transactions(
            spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
        )
        admin = cluster.admins["app"]
        results = []
        for txn in transactions:
            results.append(cluster.run_transaction(txn, "continuous"))
            cluster.publish("app", benign_successor(admin.current))
        return results, cluster.metrics.proof_cache

    cached, stats = run()
    assert (stats.hits, stats.misses, stats.invalidations, stats.retentions) == (
        866,
        58,
        10,
        1542,
    )
    with uncached():
        derived, bypassed = run()
    assert bypassed.lookups == 0
    assert cached == derived
