"""Every record the proof cache returns is the one ``evaluate_proof`` returns.

``ProofCache.evaluate`` is wrapped for the duration of small runs of the
four benchmark configurations (``benchmarks/perf``) plus one run with online
OCSP and a revocation, and each record it returns is compared, field for
field, with :func:`~repro.policy.proofs.evaluate_proof` on the same
arguments — a pure function, so asking it changes nothing in the run.  The
cache shares derivations between users through subject-generic templates;
this is where that has to hold on every shape a real run produces.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.scale import StaleCommitTracker
from repro.analysis.sweep import SweepPoint, run_point
from repro.chaos.fuzz import FuzzCase, run_case
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import evaluate_proof
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    PolicyStormProcess,
    ScaleWorkloadSpec,
    generate_scale_workload,
    mint_user_credentials,
    storm_schedule,
)
from repro.workloads.testbed import build_cluster, build_multiregion_cluster
from repro.workloads.updates import revoke_at


@pytest.fixture
def checked(monkeypatch):
    """``[calls, mismatches, hits]`` of every ``ProofCache.evaluate`` from now on."""
    seen = [0, [], 0]
    evaluate = ProofCache.evaluate

    def compared(self, policy, query_id, user, operation, items, credentials, server, now,
                 registry, revocation=None, counters=None, obs_span=None):
        hits = getattr(self.stats, "hits", 0)
        got = evaluate(self, policy, query_id, user, operation, items, credentials, server,
                       now, registry, revocation, counters, obs_span)
        want = evaluate_proof(policy, query_id, user, operation, items, credentials, server,
                              now, registry, revocation)
        seen[0] += 1
        seen[2] += getattr(self.stats, "hits", 0) - hits
        if got != want:
            seen[1].append((got, want))
        return got

    monkeypatch.setattr(ProofCache, "evaluate", compared)
    return seen


def test_wan_cell(checked):
    """``wan-steady`` at 300 users: streaming, live telemetry, storms; every
    user is new, so every hit is another user's template."""
    config = CloudConfig(
        request_timeout=3000.0, obs_spans=False, streaming_metrics=True,
        live_telemetry=True, flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=2, items_per_shard=64, replication_factor=2, seed=83,
        config=config, trace=False,
    )
    spec = ScaleWorkloadSpec(
        n_users=300, arrival_rate=0.15, txn_length=2, read_fraction=0.85, zipf_skew=0.8,
        locality=0.9,
    )
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = generate_scale_workload(spec, cluster.shards, random.Random(84), credentials)
    horizon = spec.n_users * spec.txns_per_user / spec.arrival_rate
    storms = storm_schedule(
        list(cluster.shards.regions), random.Random(85), horizon=horizon,
        mean_interval=horizon / 6, updates_per_storm=3, spacing=2.0, mode="benign",
    )
    PolicyStormProcess(cluster, storms).start()
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
    runner.on_outcome = StaleCommitTracker(cluster).observe
    runner.run_scheduled(schedule)
    calls, mismatches, hits = checked
    assert calls >= 600 and hits > calls // 3
    assert mismatches == []


def test_policy_churn_point(checked):
    """``dc-churn`` at 40 transactions: continuous/global, benign churn."""
    run_point(
        SweepPoint(
            approach="continuous", consistency=ConsistencyLevel.GLOBAL, n_servers=6,
            txn_length=6, n_transactions=40, update_interval=25.0, update_mode="benign",
            read_fraction=0.7, seed=83, config_overrides={"obs_spans": False},
        )
    )
    calls, mismatches, hits = checked
    assert calls > 500 and hits > calls // 2
    assert mismatches == []


def test_chaos_cells(checked):
    """``chaos-grid``'s plan on every approach x level at one seed."""
    horizon = 24 * FuzzCase.arrival_gap
    down = round(0.1 * horizon, 1)
    plan = FaultPlan(
        (
            FaultSpec("drop_rate", at=0.0, duration=horizon, rate=0.01),
            FaultSpec("crash", at=round(0.2 * horizon, 1), node="s2", down_for=down),
            FaultSpec("crash", at=round(0.6 * horizon, 1), node="s1", on_kind=msg.VOTE_REPLY,
                      down_for=down),
        ),
        label="perf-chaos-grid",
    )
    for approach in PAPER_APPROACHES:
        for consistency in CONSISTENCY_LEVELS:
            run_case(FuzzCase(seed=83, plan=plan, approach=approach, consistency=consistency,
                              n_transactions=24))
    calls, mismatches, _ = checked
    assert calls > 500
    assert mismatches == []


def test_online_ocsp_with_a_revocation(checked):
    """Prefetched statuses as the checker, three users, one credential
    revoked mid-run: verdicts are keyed by the snapshot's content."""
    cluster = build_cluster(
        n_servers=3, items_per_server=4, seed=83, config=CloudConfig(use_online_ocsp=True)
    )
    rng = random.Random(86)
    users = ("alice", "bob", "carol")
    credentials = {user: cluster.issue_role_credential(user) for user in users}
    revoke_at(cluster, credentials["bob"].issuer, credentials["bob"].cred_id, at_time=60.0)
    for round_ in range(4):
        for user in users:
            spec = WorkloadSpec(txn_length=3, read_fraction=0.7, count=1, user=user)
            (txn,) = uniform_transactions(
                spec, cluster.catalog, rng, [credentials[user]], id_prefix=f"{user}{round_}-"
            )
            cluster.run_transaction(txn, "deferred")
    calls, mismatches, hits = checked
    assert calls > 30 and hits > 0
    assert mismatches == []
    assert cluster.metrics.proof_cache.invalidations > 0
