"""Unit tests for metrics, reporting, and workload generators."""

import random

import pytest

from repro.cloud.messages import CAT_DECISION, CAT_OCSP, CAT_VOTE
from repro.db.items import ItemCatalog
from repro.errors import SimulationError
from repro.metrics.counters import MessageCounters, Metrics
from repro.metrics.report import format_cell, format_series, format_table
from repro.metrics.stats import TransactionOutcome, aggregate, percentile
from repro.sim.network import Message
from repro.workloads.generator import (
    WorkloadSpec,
    one_query_per_server,
    poisson_arrivals,
    uniform_transactions,
)


def message(category, txn_id=None, msg_id=1):
    payload = {} if txn_id is None else {"txn_id": txn_id}
    return Message(msg_id, "a", "b", "k", payload, category)


class TestMessageCounters:
    def test_category_totals(self):
        counters = MessageCounters()
        counters.on_message(message(CAT_VOTE))
        counters.on_message(message(CAT_VOTE))
        counters.on_message(message(CAT_OCSP))
        assert counters.total() == 3
        assert counters.total([CAT_VOTE]) == 2

    def test_protocol_total_excludes_infrastructure(self):
        counters = MessageCounters()
        counters.on_message(message(CAT_VOTE))
        counters.on_message(message(CAT_DECISION))
        counters.on_message(message(CAT_OCSP))
        assert counters.protocol_total() == 2

    def test_per_txn_attribution(self):
        """Only an open transaction's protocol messages are attributed; the
        rest count globally."""
        metrics = Metrics()
        metrics.txn_started("tm1", "t1", "deferred", "view", 0.0)
        metrics.on_message(message(CAT_VOTE, "t1"), 0.0)
        metrics.on_message(message(CAT_OCSP, "t1"), 0.0)  # not a protocol message
        metrics.on_message(message(CAT_VOTE, "t2"), 0.0)  # never opened
        metrics.on_message(message(CAT_VOTE), 0.0)  # unattributed
        assert metrics.messages.by_txn == {"t1": 1}
        assert metrics.messages.protocol_total() == 3
        assert metrics.messages.total() == 4

    def test_one_counter_per_transaction_not_per_message(self):
        """``on_message`` runs per send: an open transaction holds one int,
        whatever it is sent."""
        counters = MessageCounters()
        counters.by_txn.update((f"t{index}", 0) for index in range(10))
        for index in range(1000):
            category = CAT_VOTE if index % 2 else CAT_DECISION
            counters.on_message(message(category, f"t{index % 10}", msg_id=index))
        assert counters.total() == counters.protocol_total() == 1000
        assert counters.by_txn == {f"t{index}": 100 for index in range(10)}

    def test_close_txn_drops_attribution_keeps_totals(self):
        metrics = Metrics()
        metrics.txn_started("tm1", "t1", "deferred", "view", 0.0)
        for _ in range(3):
            metrics.on_message(message(CAT_VOTE, "t1"), 0.0)
        metrics.proofs.on_proof("s1", "t1")
        assert metrics.close_txn("t1") == (3, 1)
        assert metrics.messages.by_txn == {} and metrics.proofs.by_txn == {}
        metrics.on_message(message(CAT_VOTE, "t1"), 0.0)  # a straggler counts globally
        metrics.proofs.on_proof("s1", "t1")
        assert metrics.messages.by_txn == {} and metrics.proofs.by_txn == {}
        assert metrics.messages.total() == 4 and metrics.proofs.total == 2
        assert metrics.close_txn("t1") == (0, 0)

    def test_metrics_bundle_routes_hook(self):
        metrics = Metrics()
        metrics.txn_started("tm1", "t1", "deferred", "view", 0.0)
        metrics.on_message(message(CAT_VOTE, "t1"), 0.0)
        metrics.proofs.on_proof("s1", "t1")
        assert metrics.messages.by_txn == {"t1": 1}
        assert metrics.proofs.by_txn == {"t1": 1}
        assert metrics.proofs.by_server["s1"] == 1


def outcome(committed=True, latency=10.0, txn_id="t", reason=None):
    from repro.errors import AbortReason

    return TransactionOutcome(
        txn_id=txn_id,
        approach="deferred",
        consistency="view",
        committed=committed,
        abort_reason=None if committed else (reason or AbortReason.PROOF_FAILED),
        started_at=0.0,
        execution_done_at=latency / 2,
        finished_at=latency,
        queries_total=3,
        queries_executed=3 if committed else 1,
        participants=3,
        voting_rounds=1,
        protocol_messages=12,
        proof_evaluations=3,
    )


class TestAggregation:
    def test_commit_and_abort_rates(self):
        summary = aggregate([outcome(True), outcome(True), outcome(False)])
        assert summary.count == 3
        assert summary.commit_rate == pytest.approx(2 / 3)
        assert summary.abort_rate == pytest.approx(1 / 3)
        assert summary.abort_reasons == {"proof_failed": 1}

    def test_latency_statistics(self):
        summary = aggregate([outcome(latency=float(value)) for value in (10, 20, 30)])
        assert summary.mean_latency == 20.0
        assert summary.p95_latency == 30.0

    def test_wasted_time_only_counts_aborts(self):
        summary = aggregate([outcome(True, 10.0), outcome(False, 40.0)])
        assert summary.total_wasted_time == 40.0

    def test_empty_aggregate(self):
        summary = aggregate([])
        assert summary.count == 0
        assert summary.commit_rate == 0.0

    def test_percentile_edge_cases(self):
        assert percentile([], 0.95) == 0.0
        assert percentile([5.0], 0.95) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class TestReportFormatting:
    def test_format_cell_types(self):
        assert format_cell(True) == "yes"
        assert format_cell(3.0) == "3"
        assert format_cell(3.14159) == "3.142"
        assert format_cell("text") == "text"

    def test_table_alignment_and_title(self):
        table = format_table(["name", "value"], [["a", 1], ["bb", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(line.startswith(("|", "+")) for line in lines[1:])
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # perfectly aligned

    def test_series_rendering(self):
        rendered = format_series("latency", [1, 2], [10.0, 20.0])
        assert "latency" in rendered and "20" in rendered


class TestGenerators:
    def setup_method(self):
        self.catalog = ItemCatalog()
        for server in ("s1", "s2", "s3"):
            for index in range(3):
                self.catalog.assign(f"{server}/x{index}", server)

    def test_uniform_transactions_shape(self):
        spec = WorkloadSpec(txn_length=4, count=10, read_fraction=0.5)
        txns = uniform_transactions(spec, self.catalog, random.Random(0), [])
        assert len(txns) == 10
        for txn in txns:
            assert txn.size == 4
            items = txn.items_touched()
            assert len(items) == len(set(items))  # no duplicates

    def test_uniform_rejects_oversized_transactions(self):
        spec = WorkloadSpec(txn_length=100, count=1)
        with pytest.raises(SimulationError):
            uniform_transactions(spec, self.catalog, random.Random(0), [])

    def test_read_fraction_extremes(self):
        from repro.policy.policy import Operation

        all_reads = uniform_transactions(
            WorkloadSpec(txn_length=3, count=5, read_fraction=1.0),
            self.catalog,
            random.Random(1),
            [],
        )
        assert all(
            query.operation is Operation.READ for txn in all_reads for query in txn.queries
        )
        all_writes = uniform_transactions(
            WorkloadSpec(txn_length=3, count=5, read_fraction=0.0),
            self.catalog,
            random.Random(1),
            [],
        )
        assert all(
            query.operation is Operation.WRITE for txn in all_writes for query in txn.queries
        )

    def test_one_query_per_server(self):
        txn = one_query_per_server(self.catalog, "alice", [], write_last=True)
        assert txn.size == 3
        servers = [self.catalog.server_for(query.items[0]) for query in txn.queries]
        assert servers == ["s1", "s2", "s3"]
        from repro.policy.policy import Operation

        assert txn.queries[-1].operation is Operation.WRITE

    def test_poisson_arrivals_monotone(self):
        times = poisson_arrivals(random.Random(0), rate=0.5, count=20)
        assert len(times) == 20
        assert all(earlier < later for earlier, later in zip(times, times[1:]))

    def test_poisson_requires_positive_rate(self):
        with pytest.raises(SimulationError):
            poisson_arrivals(random.Random(0), rate=0.0, count=5)

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            WorkloadSpec(txn_length=0)
        with pytest.raises(SimulationError):
            WorkloadSpec(read_fraction=1.5)
