"""Export formats: JSONL span round-trips, OpenMetrics exposition, and the
per-phase columns riding on the outcome export."""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.export import FIELDS, PHASE_FIELDS, to_csv, to_json
from repro.metrics.stats import TransactionOutcome
from repro.obs.critical import phase_columns
from repro.obs.export import spans_from_jsonl, spans_to_jsonl
from repro.obs.openmetrics import DURATION_BUCKETS, render_openmetrics, validate_openmetrics
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import ScaleWorkloadSpec, generate_scale_workload, mint_user_credentials
from repro.workloads.testbed import build_multiregion_cluster


def test_jsonl_round_trip(cluster_factory):
    recorder = cluster_factory("continuous", "view").obs
    spans = recorder.spans()
    text = spans_to_jsonl(spans)
    assert text.count("\n") == len(spans)
    back = spans_from_jsonl(text)
    assert len(back) == len(spans)
    for original, restored in zip(spans, back):
        assert restored.span_id == original.span_id
        assert restored.trace_id == original.trace_id
        assert restored.parent_id == original.parent_id
        assert restored.name == original.name
        assert restored.kind == original.kind
        assert restored.node == original.node
        assert restored.start == original.start
        assert restored.end == original.end
        assert restored.attrs == original.attrs


def test_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        spans_from_jsonl('{"span_id": 1}\nnot json\n')


def test_openmetrics_renders_and_validates(cluster_factory):
    cluster = cluster_factory("continuous", "view")
    text = render_openmetrics(cluster.metrics, cluster.obs)
    families = validate_openmetrics(text)
    assert "repro_messages" in families
    assert "repro_span_duration" in families
    assert "repro_txn_latency" in families
    assert families["repro_span_duration"]["type"] == "histogram"
    # Histogram totals must count every recorded span.
    count_samples = [
        value
        for name, labels, value in families["repro_span_duration"]["samples"]
        if name.endswith("_count")
    ]
    assert sum(count_samples) == len(cluster.obs)
    assert text.endswith("# EOF\n")
    assert len(DURATION_BUCKETS) == 15


def test_openmetrics_counters_match_metrics(cluster_factory):
    """One code path: the text exposition equals the live counter values."""
    from repro.metrics.counters import counter_samples

    cluster = cluster_factory("deferred", "view")
    families = validate_openmetrics(render_openmetrics(cluster.metrics, cluster.obs))
    live = counter_samples(cluster.metrics)
    assert live, "counter enumeration must not be empty"
    for sample in live:
        rendered = families[f"repro_{sample.family}"]["samples"]
        found = [
            value
            for name, labels, value in rendered
            if name == f"repro_{sample.family}_total" and dict(labels) == dict(sample.labels)
        ]
        assert found == [float(sample.value)], (sample.family, sample.labels)
    # Verification and engine counters must be part of the enumeration.
    assert "repro_verification_runs" in families
    assert "repro_engine_work" in families


def test_region_bytes_are_sampled_for_cross_region_pairs_only():
    """Bytes are counted only where a message crosses regions, so an
    intra-region pair has no byte sample (a 0 there would be a false zero);
    its message count is still exposed."""
    cluster = build_multiregion_cluster(
        shards_per_region=1, items_per_shard=8, seed=3, config=CloudConfig(request_timeout=4000.0)
    )
    spec = ScaleWorkloadSpec(n_users=10, arrival_rate=0.5, txn_length=2)
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = generate_scale_workload(spec, cluster.shards, random.Random(2), credentials)
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW, tm_for=cluster.tm_index_for)
    runner.run([entry.txn for entry in schedule], [entry.arrival for entry in schedule])
    families = validate_openmetrics(render_openmetrics(cluster.metrics, cluster.obs))

    def pairs(family):
        return [
            (labels["src_region"], labels["dst_region"])
            for labels in (dict(labels) for _, labels, _ in families[f"repro_{family}"]["samples"])
        ]

    assert any(src == dst for src, dst in pairs("region_messages"))
    assert pairs("region_bytes")
    assert [(src, dst) for src, dst in pairs("region_bytes") if src == dst] == []


def test_validate_rejects_missing_eof():
    with pytest.raises(ValueError):
        validate_openmetrics("# TYPE repro_x counter\nrepro_x_total 1\n")


def _outcome(txn_id: str) -> TransactionOutcome:
    return TransactionOutcome(
        txn_id=txn_id,
        approach="deferred",
        consistency="view",
        committed=True,
        abort_reason=None,
        started_at=0.0,
        execution_done_at=1.0,
        finished_at=2.0,
        queries_total=3,
        queries_executed=3,
        participants=2,
        voting_rounds=1,
        commit_rounds=1,
        protocol_messages=8,
        proof_evaluations=4,
    )


def test_outcome_export_carries_phase_columns(cluster_factory):
    cluster = cluster_factory("deferred", "view")
    phases = phase_columns(cluster.obs)
    trace_id = cluster.obs.traces()[0]
    outcomes = [_outcome(trace_id), _outcome("never-sampled")]

    rows = json.loads(to_json(outcomes, phase_times=phases))
    assert [set(row) for row in rows] == [set(FIELDS), set(FIELDS)]
    assert rows[0]["execution_time"] == pytest.approx(
        phases[trace_id]["execution_time"]
    )
    assert all(rows[1][name] is None for name in PHASE_FIELDS)

    parsed = list(csv.DictReader(io.StringIO(to_csv(outcomes, phase_times=phases))))
    assert list(parsed[0]) == list(FIELDS)
    assert parsed[1]["lock_wait_time"] == ""  # unsampled rows export empty
