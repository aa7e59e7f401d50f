"""Tests for fault schedules (a ``FaultPlan`` armed by ``Nemesis``) and the text histogram."""

import pytest

from repro.chaos.nemesis import Nemesis
from repro.chaos.plan import FaultPlan, FaultSpec, partition
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.errors import AbortReason, SimulationError
from repro.metrics.histogram import bucketize, render_histogram
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster

VIEW = ConsistencyLevel.VIEW


def make_cluster(seed=81):
    config = CloudConfig(latency=FixedLatency(1.0), request_timeout=20.0)
    return build_cluster(n_servers=2, seed=seed, config=config)


def arm(cluster, *specs):
    return Nemesis(cluster, FaultPlan(tuple(specs))).install()


def read_both(credential, txn_id):
    """Reads s2, then s1: the first message of the run goes from tm1 to s2."""
    queries = (Query.read(f"{txn_id}-q1", ["s2/x1"]), Query.read(f"{txn_id}-q2", ["s1/x1"]))
    return Transaction(txn_id, "alice", queries, (credential,))


def fault_records(cluster):
    return [
        (record.time, record.category, record.get("node"))
        for record in cluster.tracer
        if record.category in ("fault.crash", "fault.recover")
    ]


def link_records(cluster, category, src, dst):
    return [
        record
        for record in cluster.tracer.select(category)
        if (record.get("src"), record.get("dst")) == (src, dst)
    ]


class TestFaultScheduleValidation:
    def test_recover_before_crash_rejected(self):
        with pytest.raises(SimulationError, match="down_for"):
            FaultSpec("crash", node="s1", at=10.0, down_for=-5.0)

    def test_partition_window_validated(self):
        with pytest.raises(SimulationError, match="duration"):
            partition(("a",), ("b",), at=5.0, duration=0.0)

    def test_drop_rate_validated(self):
        with pytest.raises(SimulationError):
            FaultSpec("drop_rate", at=0.0, duration=1.0, rate=1.5)

    def test_double_start_rejected(self):
        nemesis = arm(make_cluster())
        with pytest.raises(SimulationError):
            nemesis.install()


class TestFaultInjection:
    def test_crash_and_recover_cycle(self):
        cluster = make_cluster()
        arm(cluster, FaultSpec("crash", at=5.0, node="s1", down_for=10.0))
        cluster.run(until=10.0)
        assert cluster.server("s1").is_down
        cluster.run(until=20.0)
        assert not cluster.server("s1").is_down
        assert fault_records(cluster) == [(5.0, "fault.crash", "s1"), (15.0, "fault.recover", "s1")]
        assert (cluster.metrics.faults.crashes, cluster.metrics.faults.recoveries) == (1, 1)

    def test_crash_during_transaction_aborts_it(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        arm(cluster, FaultSpec("crash", at=3.0, node="s2"))
        outcome = cluster.run_transaction(read_both(credential, "t-f"), "punctual", VIEW)
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.PARTICIPANT_UNREACHABLE
        assert fault_records(cluster) == [(3.0, "fault.crash", "s2")]

    def test_partition_window_cuts_and_heals(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        arm(cluster, *partition(("tm1",), ("s2",), at=2.0, duration=28.0))
        # The first transaction reaches s2 before the cut and is caught by
        # it; the second starts after the partition has healed.
        for index, start in enumerate((0.0, 60.0)):
            cluster.run(until=start)
            cluster.run_transaction(read_both(credential, f"t{index}"), "punctual", VIEW)
        drops = cluster.tracer.select("net.drop")
        assert link_records(cluster, "net.drop", "tm1", "s2")
        assert all(2.0 <= record.time < 30.0 for record in drops)
        assert {(r.get("src"), r.get("dst"), r.get("reason")) for r in drops} <= {
            ("tm1", "s2", "chaos"),
            ("s2", "tm1", "chaos"),
        }
        delivered = [record.time for record in link_records(cluster, "net.recv", "tm1", "s2")]
        assert min(delivered) < 2.0 and max(delivered) >= 30.0

    def test_drop_window_restores_previous_rate(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        arm(cluster, FaultSpec("drop_rate", at=1.0, duration=4.0, rate=0.5))
        cluster.run_transaction(read_both(credential, "t-loss"), "punctual", VIEW)
        drops = cluster.tracer.select("net.drop")
        assert drops and all(1.0 <= record.time < 5.0 for record in drops)
        sent_after = [r for r in cluster.tracer.select("net.send") if r.time >= 5.0]
        assert sent_after and cluster.metrics.faults.drops_by_reason["chaos"] == len(drops)


class TestHistogram:
    def test_empty_values(self):
        assert "no samples" in render_histogram([])

    def test_identical_values_single_bucket(self):
        # Degenerate all-equal input: one *unit-width* bucket, never the
        # zero-width [5.0, 5.0) range the equal-width formula would give.
        rows = bucketize([5.0, 5.0, 5.0])
        assert rows == [(5.0, 6.0, 3)]

    def test_identical_values_render_shows_full_bar(self):
        text = render_histogram([5.0, 5.0, 5.0], title="flat", width=10)
        assert "[    5.0,     6.0) ########## 3" in text

    def test_bucket_counts_sum_to_samples(self):
        values = [float(v) for v in range(100)]
        rows = bucketize(values, buckets=7)
        assert sum(count for _l, _h, count in rows) == 100

    def test_render_contains_percentiles_and_bars(self):
        values = [1.0, 2.0, 2.0, 3.0, 10.0]
        text = render_histogram(values, title="latency")
        assert text.startswith("latency (5 samples")
        assert "p95" in text
        assert "#" in text

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            bucketize([1.0], buckets=0)
