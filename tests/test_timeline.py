"""Unit tests for timeline reconstruction (the Figs. 3-6 machinery)."""

import pytest

from repro.metrics.timeline import ProofEvent, TransactionTimeline, extract_timeline
from repro.sim.tracing import PROOF_EVAL, TXN_DONE, TXN_READY, TXN_START, Tracer


def traced_run(txn_id="t1"):
    tracer = Tracer()
    tracer.record(0.0, TXN_START, txn_id=txn_id)
    tracer.record(2.0, PROOF_EVAL, txn_id=txn_id, server="s1", phase="execution", query_id="q1")
    tracer.record(4.0, PROOF_EVAL, txn_id=txn_id, server="s2", phase="execution", query_id="q2")
    tracer.record(5.0, TXN_READY, txn_id=txn_id)
    tracer.record(7.0, PROOF_EVAL, txn_id=txn_id, server="s1", phase="commit", query_id="q1")
    tracer.record(9.0, TXN_DONE, txn_id=txn_id, committed=True)
    return tracer


class TestExtraction:
    def test_window_and_events(self):
        timeline = extract_timeline(traced_run(), "t1")
        assert timeline.start == 0.0
        assert timeline.ready == 5.0
        assert timeline.end == 9.0
        assert len(timeline.events) == 3

    def test_other_transactions_filtered_out(self):
        tracer = traced_run("t1")
        tracer.record(3.0, PROOF_EVAL, txn_id="other", server="s9", phase="execution", query_id="x")
        timeline = extract_timeline(tracer, "t1")
        assert all(event.server != "s9" for event in timeline.events)

    def test_missing_start_falls_back_to_first_event(self):
        tracer = Tracer()
        tracer.record(3.5, PROOF_EVAL, txn_id="t", server="s1", phase="execution", query_id="q")
        timeline = extract_timeline(tracer, "t")
        assert timeline.start == 3.5
        assert timeline.end is None

    def test_lanes_grouped_and_sorted(self):
        timeline = extract_timeline(traced_run(), "t1")
        lanes = timeline.lanes()
        assert set(lanes) == {"s1", "s2"}
        assert [event.time for event in lanes["s1"]] == [2.0, 7.0]


class TestRendering:
    def test_render_has_one_lane_per_server(self):
        timeline = extract_timeline(traced_run(), "t1")
        rendered = timeline.render(width=30)
        lines = rendered.splitlines()
        assert lines[0].startswith("txn t1")
        assert sum(1 for line in lines if "|" in line) == 2

    def test_render_marks_every_event(self):
        timeline = extract_timeline(traced_run(), "t1")
        rendered = timeline.render(width=50)
        lane_lines = [line for line in rendered.splitlines() if "|" in line]
        assert sum(line.count("*") for line in lane_lines) == 3

    def test_render_without_window_degrades_gracefully(self):
        timeline = TransactionTimeline("t", 0.0, None, None, ())
        assert "no completed window" in timeline.render()

    def test_events_at_window_edges_stay_in_bounds(self):
        events = (
            ProofEvent("s1", 0.0, "execution", "q1"),
            ProofEvent("s1", 10.0, "commit", "q2"),
        )
        timeline = TransactionTimeline("t", 0.0, 5.0, 10.0, events)
        rendered = timeline.render(width=20)
        lane = [line for line in rendered.splitlines() if "|" in line][0]
        inner = lane.split("|")[1]
        assert inner[0] == "*" and inner[-1] == "*"
