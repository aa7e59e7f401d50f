"""Flight recorder: ring semantics, incident bundles, and the verify hook.

Unit tests pin the bounded-ring behavior (eviction, merged ordering,
disable switch) and the :class:`~repro.obs.flight.IncidentBundle` file
layout; the integration tests run a real span-recorded cluster, seed a
strict-2PL violation against a *finished* transaction, and check
:func:`repro.verify.verify_cluster` dumps a complete, strictly valid
bundle — including the waterfall of the implicated transaction.
"""

import json

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.obs import flight
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    MAX_BUNDLES,
    FlightEvent,
    FlightRecorder,
    IncidentBundle,
)
from repro.obs.openmetrics import validate_openmetrics
from repro.workloads.generator import (
    WorkloadSpec,
    poisson_arrivals,
    uniform_transactions,
)
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.testbed import build_cluster

SEED = 41


class TestRing:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record("s1", float(index), "tick", txn_id=f"t{index}")
        events = recorder.events("s1")
        assert [event.seq for event in events] == [2, 3, 4]
        assert recorder.recorded == 5

    def test_merged_view_interleaves_by_seq(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("s2", 0.0, "a")
        recorder.record("s1", 1.0, "b")
        recorder.record("s2", 2.0, "c")
        assert [event.seq for event in recorder.events()] == [0, 1, 2]
        assert recorder.nodes() == ["s1", "s2"]
        assert recorder.events("unknown") == []

    def test_on_message_uses_bound_clock(self):
        """The clock is the caller's: the send site passes its own ``now``."""
        recorder = FlightRecorder()

        class Message:
            src, dst, kind = "tm0", "s1", "prepare"
            payload = {"txn_id": "t9"}

        recorder.on_message(Message(), 42.0)
        (event,) = recorder.events()
        assert event == FlightEvent(
            0, 42.0, "tm0", "net.send", "t9", (("kind", "prepare"), ("dst", "s1"))
        )
        assert event.to_dict()["dst"] == "s1"

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.record("s1", 0.0, "tick")
        recorder.clear()
        assert recorder.events() == []

    def test_recording_builds_no_event_objects(self, monkeypatch):
        """Every send records; only an incident inspects.  The send path
        appends one plain tuple and leaves the objects to ``events()``."""
        built = []
        monkeypatch.setattr(
            flight, "FlightEvent", lambda *row: built.append(row) or FlightEvent(*row)
        )
        recorder = FlightRecorder()
        recorder.record("s1", 0.0, "tick", txn_id="t1")
        assert built == []
        assert recorder.events() == [FlightEvent(0, 0.0, "s1", "tick", "t1")]
        assert built == [(0, 0.0, "s1", "tick", "t1", ())]


class TestDump:
    class Violation:
        def __init__(self, txn_id):
            self.txn_id = txn_id

        def format(self):
            return f"[locks.unreleased] {self.txn_id}"

    def test_dump_without_metrics(self):
        recorder = FlightRecorder()
        recorder.record("s1", 1.0, "tick", txn_id="t1")
        bundle = recorder.dump(
            "manual", now=2.0, violations=[self.Violation("t1")]
        )
        assert bundle.reason == "manual"
        assert bundle.violations == ("[locks.unreleased] t1",)
        assert bundle.openmetrics is None and bundle.waterfalls == {}
        assert bundle.events[0]["txn_id"] == "t1"
        assert recorder.last_bundle is bundle and recorder.dumps == 1

    def test_bundle_retention_capped(self):
        recorder = FlightRecorder()
        bundles = [recorder.dump(f"r{i}", now=float(i)) for i in range(MAX_BUNDLES + 3)]
        assert len(recorder.bundles) == MAX_BUNDLES
        assert recorder.last_bundle is bundles[-1]
        assert recorder.bundles[0].reason == "r3"

    def test_bundle_write_layout(self, tmp_path):
        bundle = IncidentBundle(
            reason="unit",
            created_at=1.0,
            events=[{"seq": 0, "time": 1.0, "node": "s1", "category": "tick"}],
            violations=("v1",),
            openmetrics="# EOF\n",
            waterfalls={"t1": "root 0..1"},
        )
        path = bundle.write(tmp_path / "incident")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["files"] == ["events.jsonl", "metrics.om", "waterfall.txt"]
        assert manifest["n_events"] == 1
        lines = (path / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["node"] == "s1"
        assert "== t1 ==" in (path / "waterfall.txt").read_text()
        assert bundle.to_dict()["has_openmetrics"] is True

    def test_empty_bundle_jsonl(self):
        assert IncidentBundle("r", 0.0, events=[]).events_jsonl() == ""


def run_cluster():
    """A small finished workload with the flight recorder on."""
    config = CloudConfig(flight_recorder=True)
    cluster = build_cluster(n_servers=3, items_per_server=4, seed=SEED, config=config)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=3, read_fraction=0.7, count=8, user="alice")
    txns = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    arrivals = poisson_arrivals(
        cluster.rng.stream("arrivals"), rate=0.05, count=len(txns)
    )
    OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW).run(txns, arrivals)
    return cluster


class TestVerifyHook:
    def seed_violation(self, cluster):
        """An unreleased lock grant against a *finished* transaction."""
        target = next(outcome for tm in cluster.tms for outcome in tm.outcomes)
        server = sorted(cluster.servers)[0]
        cluster.tracer.record(
            cluster.env.now,
            "lock.grant",
            key="seeded/item",
            mode="X",
            server=server,
            txn_id=target.txn_id,
        )
        return target.txn_id

    def test_clean_run_dumps_nothing(self):
        cluster = run_cluster()
        report = cluster.verify()
        assert not report.violations
        assert cluster.metrics.flight.last_bundle is None

    def test_violation_triggers_complete_bundle(self, tmp_path):
        cluster = run_cluster()
        txn_id = self.seed_violation(cluster)
        report = cluster.verify()
        assert report.violations
        flight = cluster.metrics.flight
        bundle = flight.last_bundle
        assert bundle is not None
        assert bundle.reason.startswith("conformance:")
        assert "locks.unreleased" in bundle.reason
        assert any(txn_id in violation for violation in bundle.violations)
        assert bundle.events
        validate_openmetrics(bundle.openmetrics)
        # Spans are on by default, so the implicated txn gets a waterfall.
        assert txn_id in bundle.waterfalls
        path = bundle.write(tmp_path)
        assert (path / "metrics.om").exists()
        assert (path / "waterfall.txt").exists()

    def test_disabled_flight_recorder_skips_dump(self):
        config = CloudConfig()
        cluster = build_cluster(n_servers=2, items_per_server=4, seed=SEED, config=config)
        assert cluster.metrics.flight is None
        cluster.verify()  # must not raise on the missing recorder

