"""Fixtures for the trace-sanitizer tests.

Finishing a workload run is the expensive part, so runs are built once per
(approach, level, churn) combination and cached for the whole test session.
Every cached run is asserted *clean* at build time — the mutation tests
then corrupt cheap clones, which doubles as the no-false-positive guarantee
for the uncorrupted baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.verify.conformance import check_run
from repro.verify.events import RunRecord, collect_run

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = {"view": ConsistencyLevel.VIEW, "global": ConsistencyLevel.GLOBAL}


def build_run(
    approach: str,
    level_name: str,
    *,
    seed: int = 7,
    transactions: int = 8,
    servers: int = 3,
    churn_interval: Optional[float] = None,
) -> RunRecord:
    """Run one seeded open-loop workload and collect its evidence."""
    from repro.workloads.generator import (
        WorkloadSpec,
        poisson_arrivals,
        uniform_transactions,
    )
    from repro.workloads.runner import OpenLoopRunner
    from repro.workloads.testbed import build_cluster
    from repro.workloads.updates import PolicyUpdateProcess

    cluster = build_cluster(n_servers=servers, items_per_server=4, seed=seed)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(
        txn_length=3, read_fraction=0.7, count=transactions, user="alice"
    )
    txns = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    arrivals = poisson_arrivals(
        cluster.rng.stream("arrivals"), rate=0.05, count=len(txns)
    )
    if churn_interval:
        PolicyUpdateProcess(
            cluster,
            "app",
            interval=churn_interval,
            rng=cluster.rng.stream("updates"),
            mode="benign",
            count=max(2, transactions // 3),
        ).start()
    OpenLoopRunner(cluster, approach, LEVELS[level_name]).run(txns, arrivals)
    return collect_run(cluster)


def clone_run(run: RunRecord) -> RunRecord:
    """An independent copy whose event-list mutations don't leak back."""
    return RunRecord(
        events=list(run.events),
        transactions=dict(run.transactions),
        version_timeline=dict(run.version_timeline),
        coordinators=run.coordinators,
        servers=run.servers,
    )


_CACHE: Dict[Tuple[str, str, float], RunRecord] = {}


@pytest.fixture(scope="session")
def run_factory():
    """``factory(approach, level, churn_interval)`` -> fresh clean clone."""

    def factory(
        approach: str, level_name: str = "view", churn_interval: float = 0.0
    ) -> RunRecord:
        key = (approach, level_name, churn_interval)
        if key not in _CACHE:
            run = build_run(
                approach, level_name, churn_interval=churn_interval or None
            )
            report = check_run(run)
            assert report.ok, (
                f"baseline run {key} must be violation-free before mutation:\n"
                + report.format()
            )
            _CACHE[key] = run
        return clone_run(_CACHE[key])

    return factory
