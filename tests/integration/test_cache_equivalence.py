"""The proof cache's safety contract, end to end.

Under a fixed seed, a cached run and an uncached run of the same workload
(the ``uncached`` fixture: ``evaluate_proof`` under every cache lookup)
must produce **identical** ``TransactionOutcome`` sequences — for every
approach and both consistency levels, with and without policy churn.  The
cache may only save host CPU; it must never change a 2PV/2PVC vote, a
commit decision, a latency, or a Table I counter.
"""

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(approach, level, *, update_interval=None, seed=29):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=update_interval,
        seed=seed,
    )
    return run_point(point).outcomes


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_cached_equals_uncached(approach, level, uncached):
    cached = outcomes(approach, level)
    with uncached():
        assert cached == outcomes(approach, level)


@pytest.mark.parametrize("approach", APPROACHES)
def test_cached_equals_uncached_under_policy_churn(approach, uncached):
    # Policy updates exercise the install-invalidation hook mid-run; the
    # equality must survive cache entries being dropped and rebuilt.
    cached = outcomes(approach, ConsistencyLevel.VIEW, update_interval=15.0)
    with uncached():
        assert cached == outcomes(approach, ConsistencyLevel.VIEW, update_interval=15.0)


def test_cache_sees_traffic_on_continuous():
    # Guard against the cache silently wiring to nothing: a Continuous run
    # re-proves earlier queries constantly, so hits must be observed.
    cluster = build_cluster(n_servers=4, items_per_server=4, seed=29)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=4, read_fraction=0.7, count=8, user="alice")
    transactions = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    for txn in transactions:
        cluster.run_transaction(txn, "continuous")
    stats = cluster.metrics.proof_cache
    assert stats.hits > 0
    assert stats.hit_rate > 0.3
    # Transparency: Table I proof accounting is unchanged by caching.
    assert cluster.metrics.proofs.total == stats.hits + stats.misses + stats.bypasses
