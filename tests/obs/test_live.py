"""Live telemetry: window ring semantics, feeds, reporting, and the CLI.

Unit tests drive :class:`~repro.obs.live.WindowRing` and
:class:`~repro.obs.live.LiveTelemetry` with stub outcomes/metrics so the
window arithmetic (rollover, gap fill, close-time delta snapshots) is
pinned exactly; the integration tests run a real multi-region cluster
with ``CloudConfig.live_telemetry`` on and check the instrumented layers
actually feed the sketches, including through ``python -m repro.obs.live``.
"""

import json
import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.obs.live import (
    DEFAULT_WINDOW,
    LiveTelemetry,
    WindowRing,
    WindowStats,
    main,
)


@dataclass
class FakeOutcome:
    approach: str = "deferred"
    consistency: str = "view"
    latency: float = 12.0
    commit_phase_time: float = 4.0
    finished_at: float = 10.0
    committed: bool = True


def fake_metrics(hits=0, misses=0, bytes_by_pair=None):
    return SimpleNamespace(
        proof_cache=SimpleNamespace(hits=hits, misses=misses),
        regions=SimpleNamespace(bytes_by_pair=bytes_by_pair or {}),
    )


class TestWindowRing:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowRing(width=0.0)
        with pytest.raises(ValueError):
            WindowRing(capacity=0)

    def test_same_window_reused(self):
        ring = WindowRing(width=10.0)
        first = ring.current(1.0)
        first.txns += 1
        assert ring.current(9.9) is first
        assert ring.windows_closed == 0

    def test_rollover_closes_previous(self):
        closed = []
        ring = WindowRing(width=10.0, on_close=closed.append)
        first = ring.current(5.0)
        second = ring.current(10.0)
        assert first.closed and not second.closed
        assert closed == [first]
        assert second.start == 10.0
        assert ring.rows() == [first, second]

    def test_gap_fills_empty_closed_windows(self):
        ring = WindowRing(width=10.0)
        ring.current(0.0)
        ring.current(45.0)  # skips [10,20), [20,30), [30,40)
        rows = ring.rows()
        assert [w.start for w in rows] == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert [w.closed for w in rows] == [True, True, True, True, False]
        assert all(w.txns == 0 for w in rows[1:4])

    def test_gap_fill_bounded_by_capacity(self):
        ring = WindowRing(width=1.0, capacity=4)
        ring.current(0.0)
        ring.current(1000.0)  # a naive fill would create ~1000 windows
        rows = ring.rows()
        assert len(rows) <= 5  # capacity closed + the open one
        assert rows[-1].start == 1000.0
        assert ring.windows_closed <= 6

    def test_time_going_backwards_raises(self):
        ring = WindowRing(width=10.0)
        ring.current(50.0)
        with pytest.raises(ValueError, match="backwards"):
            ring.current(30.0)

    def test_stats_rates(self):
        window = WindowStats(start=0.0, width=10.0, txns=4, commits=3, aborts=1)
        window.stale = 1
        window.cache_hits, window.cache_misses = 3, 1
        window.cross_wan_bytes = {"us-east": 100, "eu-west": 50}
        assert window.end == 10.0
        assert window.events_per_second == pytest.approx(0.4)
        assert window.commit_rate == pytest.approx(0.75)
        assert window.abort_rate == pytest.approx(0.25)
        assert window.stale_rate == pytest.approx(1 / 3)
        assert window.cache_hit_rate == pytest.approx(0.75)
        assert window.total_cross_wan_bytes == 150
        assert WindowStats(start=0.0, width=0.0).events_per_second == 0.0


class TestLiveTelemetryUnit:
    def test_observe_outcome_labels_and_window(self):
        live = LiveTelemetry(window=100.0)
        live.bind_regions({"tm-east": "us-east"}.get)
        live.observe_outcome(FakeOutcome(finished_at=50.0), coordinator="tm-east")
        live.observe_outcome(
            FakeOutcome(committed=False, finished_at=60.0), coordinator="tm-east"
        )
        series = live.latency.series()
        assert len(series) == 1
        labels, sketch = series[0]
        assert labels == (
            ("approach", "deferred"),
            ("consistency", "view"),
            ("region", "us-east"),
            ("shard", "tm-east"),
        )
        assert sketch.count == 2
        assert live.commit_phase.merged().count == 2
        window = live.windows.rows()[-1]
        assert (window.txns, window.commits, window.aborts) == (2, 1, 1)

    def test_unplaced_coordinator_gets_no_region_label(self):
        live = LiveTelemetry()
        live.observe_outcome(FakeOutcome(), coordinator="tm0")
        (labels, _sketch), = live.latency.series()
        assert ("region", "-") in labels

    def test_feed_methods_touch_their_windows(self):
        live = LiveTelemetry(window=10.0)
        live.record_lock_wait("s1", 2.5, now=3.0)
        live.record_proof_eval("s1", "2pv", 1.5, now=4.0)
        live.record_stale(now=5.0)
        live.record_policy_publication("us-east", now=6.0)
        window = live.windows.rows()[-1]
        assert window.lock_waits == 1
        assert window.proof_evals == 1
        assert window.stale == 1
        assert window.policy_publications == 1
        assert live.lock_wait.merged().count == 1
        assert live.proof_eval.merged().count == 1

    def test_window_close_snapshots_cumulative_deltas(self):
        metrics = fake_metrics(
            hits=5, misses=2, bytes_by_pair={("us-east", "eu-west"): 100,
                                            ("us-east", "us-east"): 999}
        )
        live = LiveTelemetry(window=10.0, metrics=metrics)
        live.observe_outcome(FakeOutcome(finished_at=5.0), coordinator="tm0")
        metrics.proof_cache.hits = 9
        metrics.regions.bytes_by_pair[("us-east", "eu-west")] = 250
        metrics.regions.bytes_by_pair[("eu-west", "us-east")] = 40
        live.observe_outcome(FakeOutcome(finished_at=15.0), coordinator="tm0")
        first = live.windows.rows()[0]
        assert first.closed
        # Deltas since the start of the run: intra-region bytes excluded.
        assert (first.cache_hits, first.cache_misses) == (9, 2)
        assert first.cross_wan_bytes == {"us-east": 250, "eu-west": 40}
        metrics.proof_cache.misses = 3
        live.observe_outcome(FakeOutcome(finished_at=25.0), coordinator="tm0")
        second = live.windows.rows()[1]
        assert (second.cache_hits, second.cache_misses) == (0, 1)
        assert second.cross_wan_bytes == {}

    def test_approach_quantiles_roll_up_across_shards(self):
        live = LiveTelemetry()
        live.bind_regions({"tm-a": "us-east", "tm-b": "eu-west"}.get)
        for shard, latency in (("tm-a", 10.0), ("tm-b", 30.0)):
            live.observe_outcome(
                FakeOutcome(latency=latency, finished_at=1.0), coordinator=shard
            )
        rows = live.approach_quantiles()
        assert len(rows) == 1
        row = rows[0]
        assert (row["approach"], row["consistency"], row["count"]) == (
            "deferred", "view", 2,
        )
        assert row["mean"] == pytest.approx(20.0)
        assert row["p99"] == pytest.approx(30.0, rel=0.02)

    def test_report_and_snapshot(self):
        live = LiveTelemetry(window=10.0)
        live.observe_outcome(FakeOutcome(finished_at=5.0), coordinator="tm0")
        live.record_lock_wait("s1", 1.0, now=6.0)
        text = live.report(now=6.0)
        assert "live telemetry @ t=6.0" in text
        assert "deferred" in text and "lock-wait" in text and "*open*" in text
        snapshot = json.loads(json.dumps(live.snapshot(), sort_keys=True))
        assert snapshot["quantiles"][0]["count"] == 1
        assert set(snapshot["families"]) == {
            "txn_latency", "commit_phase", "lock_wait", "proof_eval",
        }
        assert snapshot["windows"][-1]["txns"] == 1

    def test_sketch_families_expose_all_four(self):
        live = LiveTelemetry()
        names = [name for name, _help, _series in live.sketch_families()]
        assert names == [
            "repro_live_txn_latency",
            "repro_live_commit_phase",
            "repro_live_lock_wait",
            "repro_live_proof_eval",
        ]


class TestLiveTelemetryIntegration:
    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.cloud.config import CloudConfig
        from repro.core.consistency import ConsistencyLevel
        from repro.workloads.runner import OpenLoopRunner
        from repro.workloads.scale import (
            ScaleWorkloadSpec,
            iter_scale_workload,
            mint_user_credentials,
        )
        from repro.workloads.testbed import build_multiregion_cluster

        config = CloudConfig(request_timeout=1000.0, flight_recorder=True)
        cluster = build_multiregion_cluster(
            shards_per_region=1, items_per_shard=8, seed=31, config=config
        )
        live = LiveTelemetry(window=200.0, capacity=64, metrics=cluster.metrics)
        live.bind_regions(cluster.topology.region_of)
        cluster.metrics.live = live
        spec = ScaleWorkloadSpec(n_users=24, arrival_rate=0.4)
        credentials = mint_user_credentials(cluster, spec.n_users)
        schedule = iter_scale_workload(
            spec, cluster.shards, random.Random(32), credentials
        )
        OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW).run_scheduled(
            schedule
        )
        return cluster

    def test_every_outcome_reaches_the_latency_sketch(self, cluster):
        live = cluster.metrics.live
        outcomes = [o for tm in cluster.tms for o in tm.outcomes]
        assert outcomes
        assert live.latency.merged().count == len(outcomes)
        assert live.commit_phase.merged().count == len(outcomes)
        window_txns = sum(w.txns for w in live.windows.rows())
        assert window_txns == len(outcomes)

    def test_regions_resolved_from_topology(self, cluster):
        live = cluster.metrics.live
        regions = live.latency.label_values("region")
        assert regions and "-" not in regions

    def test_proof_evals_recorded(self, cluster):
        live = cluster.metrics.live
        assert live.proof_eval.merged().count > 0
        phases = live.proof_eval.label_values("phase")
        assert phases

    def test_sketches_exported_as_openmetrics(self, cluster):
        from repro.obs.openmetrics import render_openmetrics, validate_openmetrics

        text = render_openmetrics(cluster.metrics)
        assert "repro_live_txn_latency_bucket" in text
        validate_openmetrics(text)


class TestCLI:
    def test_json_snapshot(self, capsys):
        assert main(["--users", "12", "--seed", "5", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["quantiles"]
        assert snapshot["windows"]

    def test_report_default(self, capsys):
        assert main(["--users", "12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "live telemetry" in out
        assert "deferred" in out

    def test_inject_violation_writes_bundle(self, tmp_path, capsys):
        code = main(
            [
                "--users", "12", "--seed", "5",
                "--inject-violation", "--dump-dir", str(tmp_path / "bundle"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "flight smoke OK" in out
        for name in ("manifest.json", "events.jsonl", "metrics.om"):
            assert (tmp_path / "bundle" / name).exists()
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["violations"]
        assert "events.jsonl" in manifest["files"]

    def test_default_window_matches_module_constant(self):
        assert DEFAULT_WINDOW == 250.0
