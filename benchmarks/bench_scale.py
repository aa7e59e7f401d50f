"""Table I at planet scale: sharded multi-region runs of every approach.

The paper's evaluation (Section VI) replays tens of transactions against a
single data center.  This bench replays **tens of thousands to hundreds of
thousands** against the multi-region testbed — 3 regions x N shards, each
shard a replica group with a region-pinned coordinator, the policy master
pinned to one region — and reports how the four enforcement approaches
diverge when a transaction's coordinator sits an ocean away from the
policy master:

* **cross-region commit latency** — mean commit latency split by whether
  the coordinating TM shares a region with the master (every master
  fetch from elsewhere pays a WAN round trip);
* **abort columns** — abort rate and per-reason breakdown (policy
  inconsistency vs deadlock vs timeout);
* **stale commits** — commits whose proofs were evaluated under a policy
  version no longer the master's latest by decision time (the anomaly
  the weaker approach/consistency pairs trade for latency), measured
  online by :class:`repro.analysis.scale.StaleCommitTracker`.

Per-region policy-update storms run throughout, so replication lag is
real.

Runs are **streaming end to end** (``CloudConfig.streaming_metrics``): the
workload is generated lazily, outcomes fold into online aggregators, and
per-transaction state (metrics attribution, coordinator contexts) is
evicted as transactions finish — peak memory is bounded by in-flight work,
which is what makes 10^5-user runs routine.  Runs small enough to keep a
trace (``--verify-max-users``, default 20 000) keep their evidence whole
(outcomes, whole WALs, access logs) and must pass ``repro.verify``
with zero violations over every transaction they decided — a violation, or
a cell whose check covered fewer transactions than it decided, is a
correctness failure, not a benchmark result, and exits non-zero; larger
runs disable tracing (the trace alone would dwarf the simulation) and
report ``verify_violations: null`` and ``verify_transactions: null``.

Writes ``BENCH_SCALE.json`` (repo root by default) and the text table: the
default full-size sweep regenerates the committed
``benchmarks/results/scale.txt``; any other sweep (``--quick`` included)
writes ``<out>.table.txt`` beside the JSON report instead.  Run:

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--out PATH]

``--users`` and ``--shards-per-region`` accept comma-separated sweeps
(e.g. ``--users 10000,100000``); ``--approaches`` restricts the matrix.
The default full run (10^4 users, 6 shards, both consistency levels)
takes a few minutes; ``--quick`` is the CI smoke size.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analysis.scale import (
    ScaleRunResult,
    StaleCommitTracker,
    StreamingLocalitySplit,
)
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    PolicyStormProcess,
    ScaleWorkloadSpec,
    iter_scale_workload,
    mint_user_credentials,
    storm_schedule,
)
from repro.workloads.testbed import build_multiregion_cluster

from _common import APPROACHES, RESULTS_DIR, emit_table

SEED = 83
#: Per-region storms per run scales with the horizon: one storm roughly
#: every ``horizon / STORMS_PER_REGION`` time units.
STORMS_PER_REGION = 6
#: Above this user count, tracing (and the conformance pass) is disabled:
#: a retained trace grows linearly with the run and would dominate memory.
DEFAULT_VERIFY_MAX_USERS = 20_000


def run_one(
    approach: str,
    consistency: ConsistencyLevel,
    n_users: int,
    shards_per_region: int,
    items_per_shard: int,
    arrival_rate: float,
    verify: bool = True,
) -> ScaleRunResult:
    """One fresh cluster + identical seeded workload for one cell."""
    config = CloudConfig(
        request_timeout=3000.0,
        obs_spans=False,
        streaming_metrics=True,
        # Live telemetry: per-(approach, consistency, region, shard)
        # quantile sketches + windowed time-series — the constant-memory
        # replacement for the per-txn sample lists streaming mode discards.
        live_telemetry=True,
        flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=shards_per_region,
        items_per_shard=items_per_shard,
        replication_factor=2,
        seed=SEED,
        config=config,
        trace=verify,
    )
    spec = ScaleWorkloadSpec(
        n_users=n_users,
        arrival_rate=arrival_rate,
        txn_length=2,
        read_fraction=0.85,
        zipf_skew=0.8,
        locality=0.9,
    )
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = iter_scale_workload(
        spec, cluster.shards, random.Random(SEED + 1), credentials
    )
    # Expected last arrival — the lazy schedule's exact horizon isn't known
    # until it is drained, and storms only need the right order of magnitude.
    horizon = spec.n_users * spec.txns_per_user / spec.arrival_rate
    storms = storm_schedule(
        list(cluster.shards.regions),
        random.Random(SEED + 2),
        horizon=horizon,
        mean_interval=horizon / STORMS_PER_REGION,
        updates_per_storm=3,
        spacing=2.0,
        mode="benign",
    )
    storm_process = PolicyStormProcess(cluster, storms)
    storm_process.start()

    runner = OpenLoopRunner(cluster, approach, consistency)
    tracker = StaleCommitTracker(cluster)
    locality = StreamingLocalitySplit(cluster, runner.assignments)

    def on_outcome(outcome: Any) -> None:
        locality.observe(outcome)
        tracker.observe(outcome)  # pops the coordinator's finished context

    runner.on_outcome = on_outcome
    runner.run_scheduled(schedule)

    report = cluster.verify() if verify else None
    live = cluster.metrics.live
    assert live is not None
    # Exact sketch roll-up across every (region, shard) series: the
    # per-approach p50/p95/p99 the paper's Table I regime needs, without
    # any per-transaction sample list having existed.
    pooled = live.latency.merged()
    commit_phase = live.commit_phase.merged()
    quantile_row = {
        "sketch_p50_latency": round(pooled.quantile(0.50), 2),
        "sketch_p95_latency": round(pooled.quantile(0.95), 2),
        "sketch_p99_latency": round(pooled.quantile(0.99), 2),
        "sketch_relative_accuracy": live.relative_accuracy,
    }
    return ScaleRunResult(
        approach=approach,
        consistency=consistency.name.lower(),
        overall=runner.stream.aggregate(),
        locality=locality.split(),
        stale_commits=tracker.stale_commits,
        stale_rate=tracker.stale_rate,
        cross_region_messages=cluster.metrics.regions.cross_region,
        intra_region_messages=cluster.metrics.regions.intra_region,
        cross_region_bytes=cluster.metrics.regions.cross_region_bytes(),
        verify_violations=len(report.violations) if report is not None else None,
        storm_publications=storm_process.published,
        verify_transactions=report.transactions_checked if report is not None else None,
        extra={
            "n_users": n_users,
            "shards_per_region": shards_per_region,
            "throughput": round(runner.throughput(), 4),
            "mean_execution_time": round(pooled.mean - commit_phase.mean, 2),
            "mean_commit_phase_time": round(commit_phase.mean, 2),
            "p95_commit_phase_time": round(commit_phase.quantile(0.95), 2),
            **quantile_row,
            # Throughput-over-time / policy-storm-response curves: the
            # retained windows, oldest first (see docs/observability.md).
            "time_series": live.window_series(),
        },
    )


def _int_list(raw: str) -> List[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_SCALE.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--users",
        type=_int_list,
        default=None,
        help="simulated users per run; comma-separated values sweep "
        "(e.g. 10000,100000)",
    )
    parser.add_argument(
        "--shards-per-region",
        type=_int_list,
        default=[2],
        help="shards homed in each region; comma-separated values sweep",
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=0.4, help="user arrivals per time unit"
    )
    parser.add_argument(
        "--approaches",
        default=",".join(APPROACHES),
        help="comma-separated subset of approaches to run",
    )
    parser.add_argument(
        "--verify-max-users",
        type=int,
        default=DEFAULT_VERIFY_MAX_USERS,
        help="disable tracing + conformance above this user count",
    )
    args = parser.parse_args(argv)
    users_sweep = args.users if args.users else ([300] if args.quick else [10_000])
    items_per_shard = 32 if args.quick else 64
    approaches = [name.strip() for name in args.approaches.split(",") if name.strip()]
    unknown = [name for name in approaches if name not in APPROACHES]
    if unknown:
        parser.error(f"unknown approaches: {', '.join(unknown)}")

    results: List[ScaleRunResult] = []
    wall: Dict[str, float] = {}
    for n_users in users_sweep:
        for shards_per_region in args.shards_per_region:
            verify = n_users <= args.verify_max_users
            for approach in approaches:
                for level in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL):
                    start = time.perf_counter()
                    result = run_one(
                        approach,
                        level,
                        n_users=n_users,
                        shards_per_region=shards_per_region,
                        items_per_shard=items_per_shard,
                        arrival_rate=args.arrival_rate,
                        verify=verify,
                    )
                    key = f"{approach}/{result.consistency}/u{n_users}/s{shards_per_region}"
                    wall[key] = round(time.perf_counter() - start, 2)
                    results.append(result)
                    violations = (
                        f"{result.verify_violations} "
                        f"checked={result.verify_transactions}/{result.overall.count}"
                        if result.verify_violations is not None
                        else "skipped"
                    )
                    print(
                        f"{approach:12s} {result.consistency:6s} users={n_users} "
                        f"commits={result.overall.commits}/{result.overall.count} "
                        f"stale={result.stale_commits} "
                        f"gap={result.locality.commit_latency_gap:+.1f} "
                        f"violations={violations} wall={wall[key]:.1f}s"
                    )

    # Only the default full-size sweep may regenerate the committed table.
    out_path = pathlib.Path(args.out)
    full_size = all(
        value == parser.get_default(option)
        for option, value in vars(args).items()
        if option != "out"
    )
    emit_table(
        "scale" if full_size else f"{out_path.stem}.table",
        [
            "users",
            "approach",
            "consistency",
            "commit %",
            "stale %",
            "local lat",
            "remote lat",
            "gap",
            "abort %",
            "tput",
        ],
        [
            [
                str(int(r.extra["n_users"])),
                r.approach,
                r.consistency,
                f"{100 * (1 - r.overall.abort_rate):.1f}",
                f"{100 * r.stale_rate:.1f}",
                f"{r.locality.local.mean_commit_latency:.0f}",
                f"{r.locality.remote.mean_commit_latency:.0f}",
                f"{r.locality.commit_latency_gap:+.0f}",
                f"{100 * r.overall.abort_rate:.1f}",
                f"{r.extra['throughput']:.3f}",
            ]
            for r in results
        ],
        title=f"Table I at scale: {'/'.join(str(u) for u in users_sweep)} users, "
        f"3 regions x {'/'.join(str(s) for s in args.shards_per_region)} shards, "
        "replica groups of 2",
        notes=[
            "local/remote lat: mean commit latency by coordinator-vs-master region",
            "stale %: commits whose proof version was superseded by decision time",
            "streaming metrics: outcomes aggregated online, O(in-flight) memory",
        ],
        directory=RESULTS_DIR if full_size else out_path.parent,
    )

    clean = all(
        r.verify_violations == 0 for r in results if r.verify_violations is not None
    )
    # A check that covered fewer transactions than the cell decided judged
    # a partial history: its zero violations prove nothing about the rest.
    partial = [
        r for r in results
        if r.verify_transactions is not None and r.verify_transactions < r.overall.count
    ]
    report: Dict[str, Any] = {
        "bench": "scale",
        "quick": bool(args.quick),
        "topology": {
            "regions": 3,
            "shards_per_region": args.shards_per_region,
            "replication_factor": 2,
            "items_per_shard": items_per_shard,
            "master_region": "us-east",
        },
        "workload": {
            "n_users": users_sweep,
            "arrival_rate": args.arrival_rate,
            "txn_length": 2,
            "read_fraction": 0.85,
            "zipf_skew": 0.8,
            "locality": 0.9,
            "storms_per_region": STORMS_PER_REGION,
            "seed": SEED,
            "streaming_metrics": True,
        },
        "rows": [r.row() for r in results],
        "wall_seconds": wall,
        "all_runs_violation_free": clean,
        "all_decided_transactions_checked": not partial,
    }

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out_path}")
    if not clean:
        print("CONFORMANCE CHECK FAILED", file=sys.stderr)
        return 1
    for r in partial:
        print(
            f"CONFORMANCE CHECK INCOMPLETE: {r.approach}/{r.consistency} checked "
            f"{r.verify_transactions} of {r.overall.count} decided transactions",
            file=sys.stderr,
        )
    return 1 if partial else 0


if __name__ == "__main__":
    sys.exit(main())
