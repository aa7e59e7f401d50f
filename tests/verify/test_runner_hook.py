"""End-to-end wiring of the sanitizer: explicit verify, metrics, error path, CLI."""

from __future__ import annotations

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.errors import VerificationError
from repro.workloads.generator import (
    WorkloadSpec,
    poisson_arrivals,
    uniform_transactions,
)
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.testbed import build_cluster


def _run_workload(cluster, approach="deferred", count=4):
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=2, read_fraction=0.5, count=count, user="alice")
    txns = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    arrivals = poisson_arrivals(
        cluster.rng.stream("arrivals"), rate=0.1, count=len(txns)
    )
    runner = OpenLoopRunner(cluster, approach, ConsistencyLevel.VIEW)
    runner.run(txns, arrivals)
    return runner


def test_explicit_verify_checks_the_run():
    cluster = build_cluster(n_servers=2, items_per_server=3, seed=3)
    _run_workload(cluster)
    report = cluster.verify(raise_on_violation=True)
    assert report.ok
    assert cluster.metrics.verification.runs == 1
    assert cluster.metrics.verification.violations == 0
    assert cluster.metrics.verification.events_checked == report.events_checked > 0


def test_a_run_is_not_verified_unless_asked():
    cluster = build_cluster(n_servers=2, items_per_server=3, seed=3)
    _run_workload(cluster)
    assert cluster.metrics.verification.runs == 0


def test_cluster_verify_raises_on_corrupted_trace():
    cluster = build_cluster(n_servers=2, items_per_server=3, seed=3)
    _run_workload(cluster)
    committed = {o.txn_id for tm in cluster.tms for o in tm.outcomes if o.committed}
    votes = cluster.tracer.select(
        "net.send",
        predicate=lambda r: r.get("kind") == "2pvc.vote" and r.get("txn_id") in committed,
    )
    assert votes, "workload must have produced at least one committed 2PVC vote"
    # Make one participant's vote vanish from the record: the commit that
    # followed is now unjustifiable evidence-wise.
    cluster.tracer._records.remove(votes[0])
    with pytest.raises(VerificationError) as excinfo:
        cluster.verify(raise_on_violation=True)
    assert not excinfo.value.report.ok
    assert "2pvc.commit-without-vote" in str(excinfo.value)


def test_cluster_verify_returns_report_without_raising():
    cluster = build_cluster(n_servers=2, items_per_server=3, seed=3)
    _run_workload(cluster)
    report = cluster.verify()
    assert report.ok
    assert cluster.metrics.verification.runs == 1


def test_cli_smoke_single_configuration(capsys):
    from repro.verify.__main__ import main

    code = main(
        [
            "--approach",
            "punctual",
            "--consistency",
            "view",
            "--transactions",
            "4",
            "--servers",
            "2",
            "--update-interval",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: no conformance violations" in out


def test_cli_list_checks(capsys):
    from repro.verify.__main__ import main

    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "state-machine" in out
    assert "2pvc.commit-after-no" in out
