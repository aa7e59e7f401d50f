"""Stale-commit tracking, locality splits, and the parallel cost gate."""

from __future__ import annotations

import random

from repro.analysis import parallel
from repro.analysis.parallel import (
    MIN_PARALLEL_COST,
    SERIAL_ENV,
    estimate_point_cost,
    run_sweep,
    should_parallelize,
)
from repro.analysis.scale import (
    ScaleRunResult,
    StaleCommitTracker,
    StreamingLocalitySplit,
)
from repro.analysis.sweep import SweepPoint
from repro.cloud.config import CloudConfig
from repro.cloud.master import MASTER_NAME
from repro.core.consistency import ConsistencyLevel
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    ScaleWorkloadSpec,
    generate_scale_workload,
    mint_user_credentials,
)
from repro.workloads.testbed import build_multiregion_cluster


def make_point(n_transactions=10, txn_length=3, n_servers=4) -> SweepPoint:
    return SweepPoint(
        approach="deferred",
        consistency=ConsistencyLevel.VIEW,
        n_servers=n_servers,
        txn_length=txn_length,
        n_transactions=n_transactions,
        seed=1,
    )


class TestCostGate:
    def test_estimate_is_product_of_knobs(self):
        assert estimate_point_cost(make_point(10, 3, 4)) == 120
        assert estimate_point_cost(make_point(0, 0, 0)) == 1  # floor at 1

    def test_default_threshold(self, monkeypatch):
        monkeypatch.delenv(SERIAL_ENV, raising=False)
        assert MIN_PARALLEL_COST == 25_000
        # Two points of 12 500 units each sit exactly on the gate.
        at_gate = [make_point(125, 10, 10) for _ in range(2)]
        below = [make_point(125, 10, 10), make_point(124, 10, 10)]
        assert should_parallelize(at_gate, max_workers=2)
        assert not should_parallelize(below, max_workers=2)

    def test_small_grid_stays_serial(self, monkeypatch):
        monkeypatch.delenv(SERIAL_ENV, raising=False)
        points = [make_point() for _ in range(4)]  # cost 480 << 25k
        assert not should_parallelize(points, max_workers=4)

    def test_large_grid_parallelizes(self, monkeypatch):
        monkeypatch.delenv(SERIAL_ENV, raising=False)
        points = [make_point(1000, 10, 10) for _ in range(2)]  # cost 200k
        assert should_parallelize(points, max_workers=2)

    def test_gate_disabled_by_zero_threshold(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_COST", 0)
        monkeypatch.delenv(SERIAL_ENV, raising=False)
        assert should_parallelize([make_point(), make_point()], max_workers=2)

    def test_single_point_or_worker_never_parallelizes(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_COST", 0)
        assert not should_parallelize([make_point()], max_workers=8)
        assert not should_parallelize([make_point(), make_point()], max_workers=1)

    def test_serial_env_wins(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_COST", 0)
        monkeypatch.setenv(SERIAL_ENV, "1")
        assert not should_parallelize([make_point(), make_point()], max_workers=4)

    def test_gated_run_sweep_matches_serial(self, monkeypatch):
        monkeypatch.delenv(SERIAL_ENV, raising=False)
        points = [make_point(4, 2, 3), make_point(5, 2, 3)]
        gated = run_sweep(points, max_workers=4)
        serial = run_sweep(points, parallel=False)
        assert [r.outcomes for r in gated] == [r.outcomes for r in serial]


def run_scale(approach="deferred", consistency=ConsistencyLevel.VIEW, n_users=20):
    cluster = build_multiregion_cluster(
        shards_per_region=1,
        items_per_shard=10,
        replication_factor=2,
        seed=3,
        config=CloudConfig(request_timeout=4000.0),
    )
    spec = ScaleWorkloadSpec(n_users=n_users, arrival_rate=0.5, txn_length=2)
    creds = mint_user_credentials(cluster, spec.n_users)
    schedule = generate_scale_workload(spec, cluster.shards, random.Random(2), creds)
    tracker = StaleCommitTracker(cluster)
    runner = OpenLoopRunner(
        cluster,
        approach,
        consistency,
        tm_for=cluster.tm_index_for,
        on_outcome=tracker.observe,
    )
    outcomes = runner.run(
        [entry.txn for entry in schedule], [entry.arrival for entry in schedule]
    )
    return cluster, runner, tracker, outcomes


class TestStaleCommitTracker:
    def test_counts_match_outcomes_and_contexts_are_popped(self):
        cluster, runner, tracker, outcomes = run_scale()
        assert tracker.commits == sum(1 for o in outcomes if o.committed)
        assert 0 <= tracker.stale_commits <= tracker.commits
        assert 0.0 <= tracker.stale_rate <= 1.0
        # Every observed context was discarded — O(1) memory at scale.
        assert all(not tm.finished for tm in cluster.tms)

    def test_stale_domains_only_for_stale_commits(self):
        _, _, tracker, _ = run_scale()
        assert len(tracker.stale_domains) == tracker.stale_commits
        assert all(domains for domains in tracker.stale_domains.values())

    def test_zero_rate_when_no_commits(self):
        cluster, _, _, _ = run_scale(n_users=1)
        tracker = StaleCommitTracker(cluster)
        assert tracker.stale_rate == 0.0


def locality_split(outcomes, assignments, cluster):
    """The finished run's outcomes, fed through the one locality split."""
    locality = StreamingLocalitySplit(cluster, assignments)
    for outcome in outcomes:
        locality.observe(outcome)
    return locality.split()


class TestLocalitySplit:
    def test_partition_is_total_and_region_correct(self):
        cluster, runner, _, outcomes = run_scale()
        split = locality_split(outcomes, runner.assignments, cluster)
        assert split.master_region == cluster.region_of(MASTER_NAME)
        assert split.local.count + split.remote.count == len(outcomes)
        for outcome in outcomes:
            tm_region = cluster.region_of(runner.assignments[outcome.txn_id])
            bucket = split.local if tm_region == split.master_region else split.remote
            assert bucket.count > 0

    def test_gap_is_remote_minus_local(self):
        cluster, runner, _, outcomes = run_scale()
        split = locality_split(outcomes, runner.assignments, cluster)
        assert split.commit_latency_gap == (
            split.remote.mean_commit_latency - split.local.mean_commit_latency
        )

    def test_row_is_flat_and_json_ready(self):
        import json

        cluster, runner, tracker, outcomes = run_scale()
        from repro.metrics.stats import aggregate

        result = ScaleRunResult(
            approach="deferred",
            consistency="view",
            overall=aggregate(outcomes),
            locality=locality_split(outcomes, runner.assignments, cluster),
            stale_commits=tracker.stale_commits,
            stale_rate=tracker.stale_rate,
            cross_region_messages=cluster.metrics.regions.cross_region,
            intra_region_messages=cluster.metrics.regions.intra_region,
            cross_region_bytes=cluster.metrics.regions.cross_region_bytes(),
            verify_violations=0,
            storm_publications=0,
            extra={"throughput": 1.0},
        )
        row = result.row()
        json.dumps(row)  # must serialize as-is
        assert row["approach"] == "deferred"
        assert row["transactions"] == len(outcomes)
        assert row["throughput"] == 1.0
        assert "cross_region_latency_gap" in row
