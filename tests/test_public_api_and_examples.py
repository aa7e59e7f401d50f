"""Public-API surface checks and example smoke tests."""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestPublicApi:
    def test_top_level_all_is_resolvable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_is_exposed(self):
        import repro

        assert repro.__version__

    def test_protocol_categories_cover_protocol_kinds(self):
        from repro.cloud import messages as msg

        assert msg.CAT_VOTE in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_UPDATE in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_DECISION in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_MASTER in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_OCSP not in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_REPLICATION not in msg.PROTOCOL_CATEGORIES
        assert msg.CAT_QUERY not in msg.PROTOCOL_CATEGORIES


FAST_EXAMPLES = [
    "quickstart.py",
    "compume_scenario.py",
    "healthcare_multidomain.py",
    "adaptive_selection.py",
]


class TestExamples:
    @pytest.mark.parametrize("script", FAST_EXAMPLES)
    def test_example_runs_clean(self, script):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip(), "examples should print their tables"

    def test_quickstart_commits_everything(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=REPO_ROOT,
        )
        assert result.stdout.count("| yes") >= 8  # all 8 rows committed

    def test_compume_scenario_shows_the_unsafe_commit(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "compume_scenario.py")],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=REPO_ROOT,
        )
        assert "UNSAFE" in result.stdout


class TestDeterminism:
    def test_same_seed_same_outcome_metrics(self):
        from repro.core.consistency import ConsistencyLevel
        from repro.transactions.transaction import Query, Transaction
        from repro.workloads.testbed import build_cluster

        def run():
            cluster = build_cluster(n_servers=3, seed=123)
            credential = cluster.issue_role_credential("alice")
            txn = Transaction(
                "t-det",
                "alice",
                (
                    Query.read("q1", ["s1/x1"]),
                    Query.write("q2", deltas={"s2/x1": -3}),
                    Query.read("q3", ["s3/x1"]),
                ),
                (credential,),
            )
            outcome = cluster.run_transaction(txn, "continuous", ConsistencyLevel.GLOBAL)
            return (
                outcome.committed,
                outcome.latency,
                outcome.protocol_messages,
                outcome.proof_evaluations,
                outcome.voting_rounds,
            )

        assert run() == run()

    def test_workload_generation_is_deterministic(self):
        import random

        from repro.db.items import ItemCatalog
        from repro.workloads.generator import WorkloadSpec, uniform_transactions

        catalog = ItemCatalog({f"s1/x{i}": "s1" for i in range(8)})
        spec = WorkloadSpec(txn_length=3, count=10, read_fraction=0.5)
        first = uniform_transactions(spec, catalog, random.Random(9), [])
        second = uniform_transactions(spec, catalog, random.Random(9), [])
        assert [txn.items_touched() for txn in first] == [
            txn.items_touched() for txn in second
        ]
