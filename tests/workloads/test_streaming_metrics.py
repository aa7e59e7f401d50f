"""Streaming metrics: equivalence with retained mode, and O(1) memory.

``CloudConfig.streaming_metrics`` switches the whole pipeline — runner,
metrics attribution, TM outcome retention, WAL compaction — from "keep
everything, aggregate at the end" to "fold and evict as transactions
finish".  Two things must hold:

* **equivalence** — the streamed aggregate equals the offline
  ``aggregate()`` of the retained run column for column (the p95 column
  within one histogram bin; see
  :class:`repro.metrics.stats.StreamingOutcomeAggregator`), because both
  modes read the same outcome objects at the same simulated instants;

* **constant memory** — peak traced allocation is bounded by in-flight
  work, not run length: a 10x longer run must stay under 2x the peak
  (``tracemalloc``, measured from after cluster build so interning pools
  and policy state don't count against the run).
"""

import gc
import random
import tracemalloc
from functools import partial

import pytest

from repro.analysis.scale import StaleCommitTracker
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import StreamingOutcomeAggregator, aggregate
from repro.policy.proofcache import STREAMING_PROOF_CACHE_CAPACITY
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    ScaleWorkloadSpec,
    iter_scale_workload,
    mint_user_credentials,
)
from repro.workloads.testbed import build_cluster, build_multiregion_cluster

SEED = 59


def build(streaming, n_users, trace):
    config = CloudConfig(
        request_timeout=500.0, obs_spans=False, streaming_metrics=streaming
    )
    cluster = build_multiregion_cluster(
        shards_per_region=1,
        items_per_shard=16,
        replication_factor=2,
        seed=SEED,
        config=config,
        trace=trace,
    )
    spec = ScaleWorkloadSpec(n_users=n_users, arrival_rate=1.5, txn_length=2)
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = iter_scale_workload(
        spec, cluster.shards, random.Random(SEED + 1), credentials
    )
    return cluster, schedule


def run(streaming, n_users, trace=True, collect=False, with_tracker=False):
    cluster, schedule = build(streaming, n_users, trace)
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
    seen = []
    tracker = StaleCommitTracker(cluster) if with_tracker else None

    def hook(outcome):
        if collect:
            seen.append(outcome)
        if tracker is not None:
            tracker.observe(outcome)

    runner.on_outcome = hook
    runner.run_scheduled(schedule)
    return cluster, runner, seen


class TestEquivalence:
    def test_streaming_outcomes_identical_to_retained(self):
        _, retained_runner, _ = run(streaming=False, n_users=60)
        _, streaming_runner, streamed = run(streaming=True, n_users=60, collect=True)
        assert streaming_runner.outcomes == []  # nothing retained
        assert streamed == retained_runner.outcomes  # same objects, same order

    def test_streamed_aggregate_matches_offline(self):
        _, retained_runner, _ = run(streaming=False, n_users=60)
        _, streaming_runner, _ = run(streaming=True, n_users=60)
        offline = aggregate(retained_runner.outcomes)
        online = streaming_runner.stream.aggregate()
        assert online.count == offline.count
        assert online.commits == offline.commits
        assert online.aborts == offline.aborts
        assert online.abort_reasons == offline.abort_reasons
        assert online.mean_latency == pytest.approx(offline.mean_latency)
        assert online.mean_commit_latency == pytest.approx(
            offline.mean_commit_latency
        )
        assert online.mean_messages == pytest.approx(offline.mean_messages)
        assert online.mean_proofs == pytest.approx(offline.mean_proofs)
        # The online p95 is quantized up to its bin edge: exact <= online
        # < exact + resolution.
        assert offline.p95_latency <= online.p95_latency
        assert online.p95_latency < offline.p95_latency + 2 * 1.0

    def test_throughput_matches(self):
        _, retained_runner, _ = run(streaming=False, n_users=60)
        _, streaming_runner, _ = run(streaming=True, n_users=60)
        assert streaming_runner.throughput() == pytest.approx(
            retained_runner.throughput()
        )

    def test_streaming_run_evicts_per_txn_state(self):
        cluster, runner, _ = run(streaming=True, n_users=60, with_tracker=True)
        assert runner.assignments == {}
        assert cluster.metrics.messages.by_txn == {}
        assert cluster.metrics.proofs.by_txn == {}
        for tm in cluster.tms:
            assert tm.outcomes == []
            assert tm.finished == {}

    def test_retained_run_keeps_everything(self):
        cluster, runner, _ = run(streaming=False, n_users=60)
        assert len(runner.outcomes) == 60  # one txn per user by default
        assert runner.assignments
        assert cluster.metrics.messages.by_txn


class TestAggregatorUnit:
    def test_rejects_nonpositive_resolution(self):
        with pytest.raises(ValueError):
            StreamingOutcomeAggregator(resolution=0.0)

    def test_merge_requires_same_resolution(self):
        left = StreamingOutcomeAggregator(resolution=1.0)
        right = StreamingOutcomeAggregator(resolution=2.0)
        with pytest.raises(ValueError):
            left.merge(right)

    def test_empty_aggregate_is_zeroed(self):
        empty = StreamingOutcomeAggregator().aggregate()
        assert empty.count == 0
        assert empty.mean_latency == 0.0
        assert empty.p95_latency == 0.0


class TestConstantMemory:
    @pytest.mark.parametrize(
        "streaming, capacity", [(True, STREAMING_PROOF_CACHE_CAPACITY), (False, None)]
    )
    def test_proof_cache_is_bounded_only_when_streaming(self, streaming, capacity):
        cluster = build_cluster(n_servers=2, config=CloudConfig(streaming_metrics=streaming))
        assert {server.proof_cache.capacity for server in cluster.servers.values()} == {capacity}

    def test_peak_memory_is_sublinear_in_run_length(self, monkeypatch):
        """10x the transactions must cost < 2x the traced peak.

        Peak traced allocation in streaming mode is set by *in-flight*
        transactions (arrival rate x latency), which is identical across
        the two runs — only the run length differs.  Measurement starts
        after cluster construction so fixed costs (policy store, replica
        groups, interning) are excluded; tracing is off because a retained
        trace is linear by design.

        Streaming mode's bounded stores (the WAL up to its compaction
        threshold, the LRU proof cache and the flight rings up to their
        capacities) plateau rather than stay flat; the constants are shrunk
        below the *small* run's volume so both runs measure the plateau,
        not the fill.
        """
        import repro.cloud.server as server_mod
        import repro.obs.flight as flight_mod
        import repro.transactions.manager as manager_mod

        monkeypatch.setattr(manager_mod, "STREAMING_COMPACT_AT", 256)
        monkeypatch.setattr(server_mod, "STREAMING_COMPACT_AT", 256)
        monkeypatch.setattr(server_mod, "STREAMING_PROOF_CACHE_CAPACITY", 128)
        monkeypatch.setattr(
            flight_mod, "FlightRecorder", partial(flight_mod.FlightRecorder, capacity=64)
        )

        def peak_for(n_users):
            # Live telemetry + flight rings ride along: sketches are
            # O(label cardinality), windows O(ring capacity), flight
            # O(capacity x nodes) — none may scale with run length.
            config = CloudConfig(
                request_timeout=500.0,
                obs_spans=False,
                streaming_metrics=True,
                live_telemetry=True,
                telemetry_window=100.0,
                telemetry_windows=32,
                flight_recorder=True,
            )
            cluster = build_multiregion_cluster(
                shards_per_region=1,
                items_per_shard=64,
                replication_factor=2,
                seed=SEED,
                config=config,
                trace=False,
            )
            spec = ScaleWorkloadSpec(
                n_users=n_users, arrival_rate=0.25, txn_length=2
            )
            credentials = mint_user_credentials(cluster, spec.n_users)
            schedule = iter_scale_workload(
                spec, cluster.shards, random.Random(SEED + 1), credentials
            )
            runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
            tracker = StaleCommitTracker(cluster)
            runner.on_outcome = tracker.observe
            gc.collect()
            tracemalloc.start()
            try:
                runner.run_scheduled(schedule)
                gc.collect()  # drop unreachable deadlock-graph cycles
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert runner.stream.count == n_users
            # Streaming mode drops outcome lists, but every outcome must
            # still have reached the latency sketch.
            assert cluster.metrics.live.latency.merged().count == n_users
            flight = cluster.metrics.flight
            assert flight.recorded > 0
            # The bounded stores really are bounded by their constants.
            for server in cluster.servers.values():
                assert len(server.proof_cache) <= server_mod.STREAMING_PROOF_CACHE_CAPACITY
            assert all(len(flight.events(node)) <= flight.capacity for node in flight.nodes())
            return peak

        # Both sizes are measured the same way, twice, and the lower peak
        # counts: what the run allocates is a function of the seed, so the
        # higher one carries something that is not the run's.  The workload
        # generator interns its ids, and CPython rebuilds the process-wide
        # interned-strings table (1-2 MB, traced because it is allocated
        # inside the window) every few ten thousand insertions, wherever in
        # the suite the count happens to land.  A rebuilt table has room for
        # several of these runs, so it cannot land in two in a row.
        small = min(peak_for(150), peak_for(150))
        large = min(peak_for(1500), peak_for(1500))
        assert large < 2 * small, (
            f"peak grew {large / small:.2f}x for a 10x longer run "
            f"({small} -> {large} bytes)"
        )
