"""Determinism and correctness of the planet-scale workload generator."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cloud.config import CloudConfig
from repro.cloud.sharding import ShardMap, plan_shards, standby_region
from repro.core.consistency import ConsistencyLevel
from repro.errors import SimulationError
from repro.metrics import counters
from repro.sim import topology
from repro.sim.network import Network
from repro.sim.topology import DEFAULT_OBJECT_BYTES, estimate_message_size, estimate_wire_size
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    PolicyStormProcess,
    ScaleWorkloadSpec,
    ZipfianSampler,
    generate_scale_workload,
    mint_user_credentials,
    storm_schedule,
)
from repro.workloads.testbed import build_multiregion_cluster


def previous_estimate_wire_size(value, _depth=0):
    """``estimate_wire_size`` as it stood before its runtime checks moved
    from ``typing.Mapping`` to ``collections.abc.Mapping`` (the reference)."""
    from typing import Mapping

    kind = type(value)
    if kind is str:
        return len(value)
    if kind is int or kind is float:
        return 8
    if value is None or kind is bool:
        return 1
    is_mapping = kind is dict
    is_sequence = kind is list or kind is tuple
    if not (is_mapping or is_sequence):
        if isinstance(value, (int, float)):
            return 8
        if isinstance(value, (str, bytes, bytearray)):
            return len(value)
        wire_size = getattr(value, "__wire_size__", None)
        if wire_size is not None:
            return int(wire_size())
        is_mapping = isinstance(value, Mapping)
        is_sequence = isinstance(value, (tuple, list))
    if _depth >= 4 or not (is_mapping or is_sequence):
        return DEFAULT_OBJECT_BYTES
    total = 8
    if is_mapping:
        for key, item in value.items():
            total += previous_estimate_wire_size(key, _depth + 1)
            total += previous_estimate_wire_size(item, _depth + 1)
    else:
        for item in value:
            total += previous_estimate_wire_size(item, _depth + 1)
    return total


def small_shards() -> ShardMap:
    return ShardMap(plan_shards(["east", "west"], 2, 8, replication_factor=2))


def schedule_fingerprint(schedule):
    """Everything randomness touches, as comparable plain data."""
    return [
        (
            entry.arrival,
            entry.txn.txn_id,
            entry.user,
            entry.home_region,
            entry.tm_index,
            tuple(
                (
                    query.query_id,
                    query.operation.name,
                    query.items,
                    tuple((e.key, e.kind.name, e.amount) for e in query.effects),
                )
                for query in entry.txn.queries
            ),
        )
        for entry in schedule
    ]


class TestZipfianSampler:
    def test_identical_seeds_yield_identical_draws(self):
        a = ZipfianSampler(100, 0.9)
        b = ZipfianSampler(100, 0.9)
        draws_a = [a.sample(random.Random(5)) for _ in range(1)]
        rng_a, rng_b = random.Random(7), random.Random(7)
        assert [a.sample(rng_a) for _ in range(500)] == [
            b.sample(rng_b) for _ in range(500)
        ]
        assert draws_a == [a.sample(random.Random(5))]

    def test_skew_concentrates_on_low_ranks(self):
        sampler = ZipfianSampler(50, 1.1)
        rng = random.Random(3)
        counts = Counter(sampler.sample(rng) for _ in range(4000))
        assert counts[0] > counts.get(10, 0) > counts.get(40, 0)

    def test_zero_skew_is_roughly_uniform(self):
        sampler = ZipfianSampler(4, 0.0)
        rng = random.Random(11)
        counts = Counter(sampler.sample(rng) for _ in range(4000))
        assert all(800 < counts[rank] < 1200 for rank in range(4))

    def test_draws_stay_in_range(self):
        sampler = ZipfianSampler(3, 2.0)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 3 for _ in range(1000))

    def test_invalid_parameters_raise(self):
        with pytest.raises(SimulationError):
            ZipfianSampler(0, 1.0)
        with pytest.raises(SimulationError):
            ZipfianSampler(5, -0.1)


class TestWorkloadGeneration:
    def test_bit_identical_under_fixed_seed(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=50, arrival_rate=2.0, txn_length=3)
        creds = {f"u{i}": () for i in range(50)}
        first = generate_scale_workload(spec, shards, random.Random(42), creds)
        second = generate_scale_workload(spec, shards, random.Random(42), creds)
        assert schedule_fingerprint(first) == schedule_fingerprint(second)

    def test_different_seeds_differ(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=50, arrival_rate=2.0)
        creds = {f"u{i}": () for i in range(50)}
        first = generate_scale_workload(spec, shards, random.Random(1), creds)
        second = generate_scale_workload(spec, shards, random.Random(2), creds)
        assert schedule_fingerprint(first) != schedule_fingerprint(second)

    def test_arrivals_are_nondecreasing(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=80, arrival_rate=5.0)
        creds = {f"u{i}": () for i in range(80)}
        schedule = generate_scale_workload(spec, shards, random.Random(9), creds)
        arrivals = [entry.arrival for entry in schedule]
        assert arrivals == sorted(arrivals)

    def test_tm_index_matches_home_shard(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=40, arrival_rate=2.0, txn_length=2)
        creds = {f"u{i}": () for i in range(40)}
        for entry in generate_scale_workload(spec, shards, random.Random(4), creds):
            first_item = entry.txn.queries[0].items[0]
            shard = shards.shard_of(first_item)
            assert shard.region == entry.home_region
            assert shard.tm_index == entry.tm_index

    def test_items_within_transaction_are_distinct(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=30, arrival_rate=2.0, txn_length=4, locality=1.0)
        creds = {f"u{i}": () for i in range(30)}
        for entry in generate_scale_workload(spec, shards, random.Random(8), creds):
            items = [query.items[0] for query in entry.txn.queries]
            assert len(items) == len(set(items))

    def test_full_locality_keeps_queries_home(self):
        shards = small_shards()
        spec = ScaleWorkloadSpec(n_users=30, arrival_rate=2.0, txn_length=3, locality=1.0)
        creds = {f"u{i}": () for i in range(30)}
        for entry in generate_scale_workload(spec, shards, random.Random(6), creds):
            for query in entry.txn.queries:
                assert shards.shard_of(query.items[0]).region == entry.home_region

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            ScaleWorkloadSpec(n_users=0)
        with pytest.raises(SimulationError):
            ScaleWorkloadSpec(arrival_rate=0.0)
        with pytest.raises(SimulationError):
            ScaleWorkloadSpec(locality=1.5)


class TestStormSchedule:
    def test_bit_identical_under_fixed_seed(self):
        first = storm_schedule(["a", "b"], random.Random(5), horizon=100.0, mean_interval=20.0)
        second = storm_schedule(["a", "b"], random.Random(5), horizon=100.0, mean_interval=20.0)
        assert first == second

    def test_sorted_and_within_horizon(self):
        storms = storm_schedule(
            ["a", "b", "c"], random.Random(2), horizon=200.0, mean_interval=30.0
        )
        times = [storm.at for storm in storms]
        assert times == sorted(times)
        assert all(0 < storm.at < 200.0 for storm in storms)

    def test_invalid_parameters_raise(self):
        with pytest.raises(SimulationError):
            storm_schedule(["a"], random.Random(0), horizon=0.0, mean_interval=10.0)
        with pytest.raises(SimulationError):
            storm_schedule(["a"], random.Random(0), horizon=10.0, mean_interval=0.0)


class TestShardPlanning:
    def test_items_partition_cleanly(self):
        shards = small_shards()
        items = shards.items()
        assert len(items) == 2 * 2 * 8
        assert len(set(items)) == len(items)
        for item in items:
            assert shards.shard_of(item).items.count(item) == 1

    def test_duplicate_items_rejected(self):
        specs = plan_shards(["east"], 1, 4)
        clone = specs + specs
        with pytest.raises(SimulationError):
            ShardMap(clone)

    def test_replicas_round_robin_other_regions(self):
        regions = ["a", "b", "c"]
        assert standby_region("a", regions, 0) == "b"
        assert standby_region("a", regions, 1) == "c"
        assert standby_region("a", regions, 2) == "b"
        assert standby_region("a", ["a"], 0) == "a"

    def test_tm_indexes_follow_enumeration_order(self):
        specs = plan_shards(["east", "west"], 3, 2)
        assert [spec.tm_index for spec in specs] == list(range(6))


class TestShardedRunEndToEnd:
    def make_run(self, approach="continuous", n_users=25):
        cluster = build_multiregion_cluster(
            shards_per_region=1,
            items_per_shard=12,
            replication_factor=2,
            seed=5,
            config=CloudConfig(request_timeout=4000.0),
        )
        spec = ScaleWorkloadSpec(n_users=n_users, arrival_rate=0.5, txn_length=2)
        creds = mint_user_credentials(cluster, spec.n_users)
        schedule = generate_scale_workload(spec, cluster.shards, random.Random(7), creds)
        storms = storm_schedule(
            list(cluster.shards.regions),
            random.Random(13),
            horizon=schedule[-1].arrival,
            mean_interval=schedule[-1].arrival / 2,
        )
        storm_process = PolicyStormProcess(cluster, storms)
        storm_process.start()
        runner = OpenLoopRunner(
            cluster, approach, ConsistencyLevel.GLOBAL, tm_for=cluster.tm_index_for
        )
        outcomes = runner.run(
            [entry.txn for entry in schedule], [entry.arrival for entry in schedule]
        )
        return cluster, runner, outcomes, storm_process

    def test_sharded_run_verifies_clean(self):
        cluster, runner, outcomes, storms = self.make_run()
        assert len(outcomes) == 25
        assert any(outcome.committed for outcome in outcomes)
        report = cluster.verify()
        assert not report.violations

    def test_routing_honors_shard_coordinators(self):
        cluster, runner, outcomes, _ = self.make_run(approach="deferred")
        for txn_id, tm_name in runner.assignments.items():
            # Every coordinator is the TM of some shard homed in its region.
            shard_coordinators = {shard.coordinator for shard in cluster.shards}
            assert tm_name in shard_coordinators

    def test_identical_seeds_reproduce_outcomes(self):
        _, _, first, _ = self.make_run(n_users=15)
        _, _, second, _ = self.make_run(n_users=15)
        assert [
            (o.txn_id, o.committed, o.started_at, o.finished_at) for o in first
        ] == [(o.txn_id, o.committed, o.started_at, o.finished_at) for o in second]

    def test_storms_publish_through_replicator(self):
        cluster, _, _, storm_process = self.make_run()
        assert storm_process.published == sum(
            storm.updates for storm in storm_process.storms
        )
        # Policy replication reached the standby replicas in other regions.
        assert cluster.metrics.regions.cross_region > 0

    def test_wire_sizes_equal_the_previous_estimator(self, monkeypatch):
        """Sizes feed simulated WAN transfer time and the cross-region byte
        counters, so a cheaper estimator must size every payload of a real
        run — opaque protocol values included — exactly as before.  The
        payloads are taken at ``Network.send``: every message, sized or not."""
        payloads, sized = [], []
        send = Network.send

        def recording_send(self, *args, **kwargs):
            message = send(self, *args, **kwargs)
            payloads.append(message.payload)
            return message

        def counting(payload):
            sized.append(payload)
            return estimate_message_size(payload)

        monkeypatch.setattr(Network, "send", recording_send)
        monkeypatch.setattr(counters, "estimate_message_size", counting)
        monkeypatch.setattr(topology, "estimate_message_size", counting)
        cluster, _, _, _ = self.make_run()
        regions = cluster.metrics.regions
        assert len(payloads) == regions.intra_region + regions.cross_region
        # The default WAN topology has no LAN bandwidth: a size is paid only
        # where bytes are charged, once per cross-region message.
        assert cluster.topology.intra_profile.bandwidth is None
        assert regions.intra_region > 0
        assert len(sized) == regions.cross_region

        def leaves(value):
            if isinstance(value, dict):
                value = [*value, *value.values()]
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            else:
                yield type(value).__name__

        seen = {name for payload in payloads for name in leaves(payload)}
        assert seen >= {
            "Policy", "PolicyId", "Query", "Credential", "ProofOfAuthorization", "Vote", "Decision",
        }
        assert [estimate_wire_size(payload) for payload in payloads] == [
            previous_estimate_wire_size(payload) for payload in payloads
        ]
