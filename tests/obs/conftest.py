"""Fixtures for the span-tracing tests.

Finishing a workload is the expensive part, so one cluster is built and
run per (approach, level) and cached for the whole session.  Tests only
*read* the recorded spans, so sharing the finished cluster is safe.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.core.consistency import ConsistencyLevel
from repro.workloads.scenarios import run_smoke_workload

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = {"view": ConsistencyLevel.VIEW, "global": ConsistencyLevel.GLOBAL}

#: Workload shape shared by every cached run (churn in flight — the
#: hardest case for span containment: repair rounds, extra 2PV rounds).
TRANSACTIONS = 6

_CACHE: Dict[Tuple[str, str], object] = {}


@pytest.fixture(scope="session")
def cluster_factory():
    """``factory(approach, level_name)`` -> finished, span-recorded cluster."""

    def factory(approach: str, level_name: str = "view"):
        key = (approach, level_name)
        if key not in _CACHE:
            _CACHE[key] = run_smoke_workload(
                approach,
                LEVELS[level_name],
                seed=7,
                transactions=TRANSACTIONS,
                servers=3,
                update_interval=40.0,
                sample_rate=1.0,
            )
        return _CACHE[key]

    return factory
