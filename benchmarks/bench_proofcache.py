"""Wall-clock benchmark for the proof cache and the parallel sweep engine.

Unlike the table/figure benches (which measure *simulated* quantities),
this bench measures **host wall-clock**: the proof cache and the parallel
sweep engine are transparent to simulated time by design, so their value
only shows on the real clock.  It verifies, on a fixed seeded grid, that

* cached and uncached runs produce identical ``TransactionOutcome``
  sequences for every approach (the safety contract), and caching speeds
  the proof-heavy approaches up;
* parallel and serial sweeps return equal results, and parallelism speeds
  the grid up.

Writes ``BENCH_proofcache.json`` (repo root by default) with the measured
numbers — the source of the table in ``docs/performance.md``.  Run:

    PYTHONPATH=src python benchmarks/bench_proofcache.py [--quick] [--out PATH]

``--quick`` shrinks the grid for CI smoke runs (seconds, not minutes).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace
from typing import Dict, List

from repro.analysis.parallel import (
    MIN_PARALLEL_COST,
    default_workers,
    estimate_point_cost,
    parallel_map,
    run_sweep,
    should_parallelize,
)
from repro.analysis.sweep import SweepPoint, run_point, sweep
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import benign_successor

from _common import APPROACHES


def make_grid(quick: bool, enable_cache: bool) -> List[SweepPoint]:
    """The fixed benchmark grid: every approach × two churn regimes."""
    n_txns = 12 if quick else 40
    txn_length = 4 if quick else 6
    points = []
    for approach in APPROACHES:
        for interval in (None, 30.0):
            points.append(
                SweepPoint(
                    approach=approach,
                    consistency=ConsistencyLevel.VIEW,
                    n_servers=4,
                    txn_length=txn_length,
                    n_transactions=n_txns,
                    update_interval=interval,
                    update_mode="benign",
                    seed=61,
                    config_overrides={"enable_proof_cache": enable_cache},
                )
            )
    return points


def time_serial(points: List[SweepPoint], repeats: int) -> float:
    """Best-of-N wall-clock for a serial run of ``points``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sweep(points)
        best = min(best, time.perf_counter() - start)
    return best


def measure_cache(quick: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    """Per-approach cached vs. uncached wall-clock + outcome equality."""
    out: Dict[str, Dict[str, object]] = {}
    cached_grid = make_grid(quick, enable_cache=True)
    uncached_grid = make_grid(quick, enable_cache=False)
    for approach in APPROACHES:
        cached_points = [p for p in cached_grid if p.approach == approach]
        uncached_points = [p for p in uncached_grid if p.approach == approach]
        cached_results = [run_point(p) for p in cached_points]
        uncached_results = [run_point(p) for p in uncached_points]
        identical = all(
            c.outcomes == u.outcomes
            for c, u in zip(cached_results, uncached_results)
        )
        cached_s = time_serial(cached_points, repeats)
        uncached_s = time_serial(uncached_points, repeats)
        out[approach] = {
            "cached_s": round(cached_s, 4),
            "uncached_s": round(uncached_s, 4),
            "speedup": round(uncached_s / cached_s, 3) if cached_s else None,
            "outcomes_identical": identical,
        }
    return out


def measure_hit_rate(quick: bool) -> Dict[str, object]:
    """Cache counters for a Continuous workload on one shared cluster."""
    cluster = build_cluster(n_servers=4, items_per_server=6, seed=61)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(
        txn_length=4 if quick else 6,
        read_fraction=0.7,
        count=12 if quick else 40,
        user="alice",
    )
    transactions = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    for txn in transactions:
        cluster.run_transaction(txn, "continuous")
    stats = cluster.metrics.proof_cache
    return {
        "approach": "continuous",
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
        "invalidations": stats.invalidations,
        "proof_evaluations": cluster.metrics.proofs.total,
    }


def measure_policy_storm(quick: bool) -> Dict[str, object]:
    """Cache retention under a benign policy storm.

    A marker-only policy version lands after every transaction — the
    policy-storm regime of the scale workloads.  Each install re-points
    the lineages its rule diff cannot affect (:mod:`repro.policy.analyze`
    impact analysis) to the new version instead of dropping their entries,
    so the hit rate should stay high while outcomes remain bit-identical
    to an uncached run.  The four counters are seed-deterministic: a
    regenerated ``BENCH_proofcache.json`` that shows other values is a
    semantic change, not noise.
    """

    def run(enable_cache: bool):
        config = CloudConfig(enable_proof_cache=enable_cache)
        cluster = build_cluster(
            n_servers=4, items_per_server=6, seed=61, config=config
        )
        credential = cluster.issue_role_credential("alice")
        spec = WorkloadSpec(
            txn_length=4 if quick else 6,
            read_fraction=0.7,
            count=12 if quick else 40,
            user="alice",
        )
        transactions = uniform_transactions(
            spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
        )
        admin = cluster.admins["app"]
        outcomes = []
        for txn in transactions:
            outcomes.append(cluster.run_transaction(txn, "continuous"))
            cluster.publish("app", benign_successor(admin.current))
        return outcomes, cluster.metrics.proof_cache

    cached_outcomes, stats = run(True)
    uncached_outcomes, _ = run(False)
    return {
        "storm": "benign successor published after every transaction",
        "approach": "continuous",
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
        "invalidations": stats.invalidations,
        "retentions": stats.retentions,
        "outcomes_identical": cached_outcomes == uncached_outcomes,
    }


def measure_parallel(quick: bool, repeats: int) -> Dict[str, object]:
    """Serial loop vs. ``run_sweep``'s chosen plan for the default grid.

    ``run_sweep`` gates small grids to an in-process loop (worker start-up
    would dominate — the very regression this measurement used to show).
    When the gate picks serial, ``run_sweep`` *is* the serial loop, so the
    ratio is 1.0 by identity; timing the same code twice and dividing
    would only report sampling noise.  Both raw timings are still emitted.
    """
    points = make_grid(quick, enable_cache=True)
    # Force at least two workers so that, when the cost gate clears, the
    # ProcessPoolExecutor path is really exercised even on single-core
    # machines.
    workers = max(2, default_workers(len(points)))
    parallel_plan = should_parallelize(points, workers)
    serial_results = sweep(points)
    parallel_results = run_sweep(points, max_workers=workers)
    identical = all(
        s.point == p.point and s.outcomes == p.outcomes
        for s, p in zip(serial_results, parallel_results)
    )
    serial_s = time_serial(points, repeats)
    best_chosen = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_sweep(points, max_workers=workers)
        best_chosen = min(best_chosen, time.perf_counter() - start)
    return {
        "points": len(points),
        "workers": workers,
        "cost_estimate": sum(estimate_point_cost(point) for point in points),
        "min_parallel_cost": MIN_PARALLEL_COST,
        "plan": "parallel" if parallel_plan else "serial",
        "serial_s": round(serial_s, 4),
        "parallel_s": round(best_chosen, 4),
        "speedup": (
            round(serial_s / best_chosen, 3) if parallel_plan and best_chosen else 1.0
        ),
        "results_identical": identical,
    }


def measure_parallel_scaled(repeats: int) -> Dict[str, object]:
    """Pool speedup on a grid big enough to clear the cost gate.

    The default grid documents that the gate falls back to serial; this
    one (5x the transactions) documents that the pool still earns its keep
    once there is enough work to amortize worker start-up.
    """
    points = [
        replace(point, n_transactions=point.n_transactions * 5)
        for point in make_grid(quick=False, enable_cache=True)
    ]
    workers = max(2, default_workers(len(points)))
    assert should_parallelize(points, workers), "scaled grid must clear the gate"
    serial_s = time_serial(points, repeats)
    best_parallel = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_sweep(points, max_workers=workers)
        best_parallel = min(best_parallel, time.perf_counter() - start)
    return {
        "points": len(points),
        "workers": workers,
        "cost_estimate": sum(estimate_point_cost(point) for point in points),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(best_parallel, 4),
        "speedup": round(serial_s / best_parallel, 3) if best_parallel else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized grid")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_proofcache.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)

    report = {
        "bench": "proofcache",
        "quick": bool(args.quick),
        "grid": {
            "approaches": list(APPROACHES),
            "update_intervals": [None, 30.0],
            "n_servers": 4,
            "txn_length": 4 if args.quick else 6,
            "n_transactions": 12 if args.quick else 40,
            "seed": 61,
        },
        "cached_vs_uncached": measure_cache(args.quick, repeats),
        "continuous_cache_counters": measure_hit_rate(args.quick),
        "policy_storm_invalidation": measure_policy_storm(args.quick),
        "serial_vs_parallel": measure_parallel(args.quick, repeats),
        # Skipped under --quick: the scaled grid is full-size by design.
        "serial_vs_parallel_scaled": (
            None if args.quick else measure_parallel_scaled(repeats)
        ),
    }

    ok = (
        all(
            row["outcomes_identical"]
            for row in report["cached_vs_uncached"].values()
        )
        and report["serial_vs_parallel"]["results_identical"]
        and report["policy_storm_invalidation"]["outcomes_identical"]
    )
    report["all_equivalence_checks_passed"] = ok

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")
    if not ok:
        print("EQUIVALENCE CHECK FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
