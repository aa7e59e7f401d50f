"""Unit tests for the analysis package: sweeps, trade-offs, adaptation."""

import pytest

from repro.analysis.adaptive import AdaptiveSelector, EwmaEstimator, run_adaptive_batch
from repro.analysis.sweep import SweepPoint, run_point
from repro.analysis.tradeoff import recommend, recommend_regime
from repro.core.consistency import ConsistencyLevel
from repro.errors import SimulationError
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster


class TestRecommendation:
    def test_regime_matrix_matches_paper(self):
        assert recommend_regime(short_txn=True, updates_frequent=False) == "deferred"
        assert recommend_regime(short_txn=False, updates_frequent=False) == "punctual"
        assert recommend_regime(short_txn=True, updates_frequent=True) == "incremental"
        assert recommend_regime(short_txn=False, updates_frequent=True) == "continuous"

    def test_quantitative_form_delegates(self):
        assert recommend(5.0, update_interval=100.0, short_threshold=10.0) == "deferred"
        assert recommend(50.0, update_interval=100.0, short_threshold=10.0) == "punctual"
        assert recommend(5.0, update_interval=2.0, short_threshold=10.0) == "incremental"
        assert recommend(50.0, update_interval=2.0, short_threshold=10.0) == "continuous"


class TestSweep:
    def test_run_point_commits_without_churn(self):
        result = run_point(
            SweepPoint(approach="punctual", txn_length=2, n_transactions=4)
        )
        assert result.summary.count == 4
        assert result.summary.commit_rate == 1.0

    def test_unknown_override_key_raises(self):
        # A misspelt or retired key must not be silently ignored.
        point = SweepPoint(approach="punctual", config_overrides={"kernel_queue": "heap"})
        with pytest.raises(TypeError, match="kernel_queue"):
            run_point(point)

    def test_update_mode_validation(self):
        from repro.workloads.updates import PolicyUpdateProcess

        cluster = build_cluster(n_servers=1, seed=1)
        with pytest.raises(ValueError):
            PolicyUpdateProcess(cluster, "app", interval=10.0, mode="nonsense")

    def test_retry_on_policy_abort(self):
        """With retries, churn-aborted transactions eventually commit."""
        result = run_point(
            SweepPoint(
                approach="incremental",
                txn_length=2,
                n_transactions=6,
                update_interval=20.0,
                update_mode="benign",
                retry_policy_aborts=True,
                max_retries=5,
                seed=3,
                config_overrides={"replication_delay": (2.0, 8.0)},
            )
        )
        committed = [outcome for outcome in result.outcomes if outcome.committed]
        assert len(committed) == 6  # every logical transaction landed
        retried = [outcome for outcome in result.outcomes if "~retry" in outcome.txn_id]
        # The bench regime guarantees at least some churn hits.
        assert len(result.outcomes) == 6 + len(retried)


class TestEwma:
    def test_first_observation_sets_value(self):
        estimator = EwmaEstimator(alpha=0.5)
        assert estimator.observe(10.0) == 10.0

    def test_smoothing(self):
        estimator = EwmaEstimator(alpha=0.5)
        estimator.observe(10.0)
        assert estimator.observe(20.0) == 15.0

    def test_tracks_regime_shift(self):
        estimator = EwmaEstimator(alpha=0.5)
        for _ in range(20):
            estimator.observe(100.0)
        for _ in range(20):
            estimator.observe(5.0)
        assert estimator.value < 10.0


class TestAdaptiveSelector:
    def _txn(self, txn_id, size):
        return Transaction(
            txn_id,
            "alice",
            tuple(Query.read(f"{txn_id}-q{i}", [f"s1/x{i % 2 + 1}"]) for i in range(size)),
        )

    def test_defaults_to_deferred_without_signal(self):
        selector = AdaptiveSelector()
        approach = selector.choose(self._txn("t", 2))
        assert approach.name == "deferred"

    def test_frequent_updates_switch_pair(self):
        selector = AdaptiveSelector()
        # Updates every 5 units, transactions take ~20 -> frequent regime.
        for time in (0.0, 5.0, 10.0, 15.0):
            selector.on_policy_published(time)
        selector.on_transaction_finished(20.0, queries=2)
        approach = selector.choose(self._txn("t", 2))
        assert approach.name in ("incremental", "continuous")

    def test_length_splits_within_pair(self):
        selector = AdaptiveSelector(short_factor=1.0)
        for time in (0.0, 5.0, 10.0):
            selector.on_policy_published(time)
        # Mean duration reflects a mix; short txn below mean, long above.
        selector.on_transaction_finished(20.0, queries=4)  # 5 per query
        assert selector.choose(self._txn("short", 2)).name == "incremental"
        assert selector.choose(self._txn("long", 8)).name == "continuous"

    def test_infrequent_updates_choose_optimistic_pair(self):
        selector = AdaptiveSelector()
        selector.on_policy_published(0.0)
        selector.on_policy_published(10_000.0)
        selector.on_transaction_finished(20.0, queries=4)
        assert selector.choose(self._txn("short", 2)).name == "deferred"
        assert selector.choose(self._txn("long", 8)).name == "punctual"

    def test_choices_are_recorded(self):
        selector = AdaptiveSelector()
        selector.choose(self._txn("audit-me", 1))
        assert selector.choices["audit-me"] == "deferred"


class TestAdaptiveEndToEnd:
    def test_adaptive_batch_runs_and_adapts(self):
        cluster = build_cluster(n_servers=2, seed=5)
        selector = AdaptiveSelector()
        selector.attach(cluster)
        credential = cluster.issue_role_credential("alice")
        transactions = [
            Transaction(
                f"ad{i}",
                "alice",
                (Query.read(f"ad{i}-q1", ["s1/x1"]), Query.read(f"ad{i}-q2", ["s2/x1"])),
                (credential,),
            )
            for i in range(5)
        ]
        done = cluster.env.process(
            run_adaptive_batch(cluster, selector, transactions, ConsistencyLevel.VIEW)
        )
        outcomes = cluster.env.run(until=done)
        assert len(outcomes) == 5
        assert all(outcome.committed for outcome in outcomes)
        assert set(selector.choices) == {f"ad{i}" for i in range(5)}

    def test_attach_feeds_publications(self):
        from repro.workloads.updates import benign_successor

        cluster = build_cluster(n_servers=1, seed=6)
        selector = AdaptiveSelector()
        selector.attach(cluster)
        cluster.publish("app", benign_successor(cluster.admin("app").current))
        cluster.run(until=30.0)
        cluster.publish("app", benign_successor(cluster.admin("app").current))
        assert selector.estimated_update_interval == pytest.approx(30.0)
