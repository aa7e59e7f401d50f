"""No-false-positive suite: clean runs must verify for every configuration.

Acceptance gate for the sanitizer: all four enforcement approaches at both
consistency levels, with benign policy churn in flight (the hardest case —
repair rounds, version skew between rounds, Incremental aborts), must come
back with zero violations.
"""

from __future__ import annotations

import pytest

from repro.verify.conformance import CHECKS, check_run

from .conftest import APPROACHES


@pytest.mark.parametrize("level", ["view", "global"])
@pytest.mark.parametrize("approach", APPROACHES)
def test_clean_run_has_no_violations(run_factory, approach, level):
    run = run_factory(approach, level, churn_interval=40.0)
    report = check_run(run)
    assert report.ok, report.format()
    assert report.transactions_checked == len(run.transactions) == 8
    assert report.events_checked == len(run.events) > 0
    assert report.checks_run == tuple(name for name, _ in CHECKS)
    # The runs must actually exercise the commit path, or the suite is vacuous.
    assert any(meta.committed for meta in run.transactions.values())


def test_clean_run_covers_all_protocol_evidence(run_factory):
    """The collected record holds all three evidence sources."""
    run = run_factory("deferred", "view", churn_interval=40.0)
    categories = {event.category for event in run.events}
    assert "net.send" in categories
    assert "proof.eval" in categories
    assert "lock.grant" in categories and "lock.release" in categories
    assert "wal" in categories
    assert "storage" in categories
    # Benign churn must be visible in the master's version timeline.
    assert len(run.version_timeline.get("app", ())) >= 2


def test_check_selection_by_name(run_factory):
    run = run_factory("deferred", "view")
    report = check_run(run, checks=["locks", "wal"])
    assert report.checks_run == ("locks", "wal")
    assert report.ok
