"""Live telemetry: labeled quantile sketches + windowed time-series.

The constant-memory counterpart of the retained trace/span pipeline, for
the 10⁵–10⁶-user streaming runs where nothing per-transaction may be kept:

* **Quantile sketches** (:mod:`repro.obs.sketch`) keyed by (approach,
  consistency, region, shard) for end-to-end latency and the commit
  phase, by (region, server) for lock waits, and by (region, server,
  phase) for proof-evaluation cost.  Sketches merge exactly, so
  per-approach p50/p95/p99 roll up from the per-shard series without
  losing the α relative-error bound.
* **Windowed time-series** — a fixed-size ring of sim-time windows, each
  recording arrivals/sec, commit/abort/stale counts, policy publications,
  and (snapshotted as each window closes) proof-cache hit/miss deltas and
  per-source-region cross-WAN byte deltas.  ``bench_scale`` emits these as
  throughput-over-time and policy-storm-response curves.

Enable with ``CloudConfig.live_telemetry``; the testbed then attaches a
:class:`LiveTelemetry` to the run's :class:`~repro.metrics.counters.Metrics`
bundle and the TM/server/lock-manager instrumentation feeds it.  All times
are simulation time — the layer is deterministic and adds no simulated
cost.  ``python -m repro.obs.live`` runs a seeded multi-region workload
and prints the top-style snapshot (see docs/observability.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch, SketchFamily

__all__ = ["LiveTelemetry", "WindowStats", "WindowRing"]

#: Default window width (simulation time units) and ring capacity.
DEFAULT_WINDOW = 250.0
DEFAULT_WINDOW_COUNT = 64
#: Quantile columns every report shows.
REPORT_FRACTIONS = (0.50, 0.95, 0.99)
#: Label used when a node has no region (single-datacenter runs).
NO_REGION = "-"


@dataclass
class WindowStats:
    """Counters for one fixed-width window of simulation time."""

    start: float
    width: float
    txns: int = 0
    commits: int = 0
    aborts: int = 0
    stale: int = 0
    policy_publications: int = 0
    lock_waits: int = 0
    proof_evals: int = 0
    #: Proof-cache hit/miss deltas, snapshotted when the window closes.
    cache_hits: int = 0
    cache_misses: int = 0
    #: src region → cross-region byte delta, snapshotted at close.
    cross_wan_bytes: Dict[str, int] = field(default_factory=dict)
    closed: bool = False

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def events_per_second(self) -> float:
        """Finished transactions per simulated time unit."""
        return self.txns / self.width if self.width > 0 else 0.0

    @property
    def commit_rate(self) -> float:
        return self.commits / self.txns if self.txns else 0.0

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.txns if self.txns else 0.0

    @property
    def stale_rate(self) -> float:
        return self.stale / self.commits if self.commits else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def total_cross_wan_bytes(self) -> int:
        return sum(self.cross_wan_bytes.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "txns": self.txns,
            "commits": self.commits,
            "aborts": self.aborts,
            "stale": self.stale,
            "policy_publications": self.policy_publications,
            "lock_waits": self.lock_waits,
            "proof_evals": self.proof_evals,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cross_wan_bytes": dict(sorted(self.cross_wan_bytes.items())),
            "events_per_second": round(self.events_per_second, 6),
            "commit_rate": round(self.commit_rate, 6),
            "abort_rate": round(self.abort_rate, 6),
            "stale_rate": round(self.stale_rate, 6),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "closed": self.closed,
        }


class WindowRing:
    """Fixed-capacity ring of consecutive sim-time windows.

    Windows advance monotonically with the observation times fed in; a
    window is *closed* (and ``on_close`` fires, letting the owner snapshot
    cumulative-counter deltas into it) the first time an observation lands
    past its end.  Gaps produce empty closed windows so rate curves keep
    their time axis; only the newest ``capacity`` windows are retained.
    """

    def __init__(
        self,
        width: float = DEFAULT_WINDOW,
        capacity: int = DEFAULT_WINDOW_COUNT,
        on_close: Optional[Callable[[WindowStats], None]] = None,
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.width = width
        self.capacity = capacity
        self.on_close = on_close
        self._windows: Deque[WindowStats] = deque(maxlen=capacity)
        self._current: Optional[WindowStats] = None
        self.windows_closed = 0

    def current(self, now: float) -> WindowStats:
        """The open window containing ``now``, closing/advancing as needed."""
        index = int(now // self.width)
        current = self._current
        if current is not None and current.start == index * self.width:
            return current
        if current is not None and now < current.start:
            # Observations are driven by sim time, which never goes
            # backwards; tolerate equal-start lookups only.
            raise ValueError(
                f"window time went backwards: {now} < {current.start}"
            )
        if current is not None:
            self._close(current)
            first_gap = int(current.start // self.width) + 1
            # Fill any gap with empty closed windows (bounded by capacity —
            # older ones would be evicted immediately anyway).
            for gap_index in range(max(first_gap, index - self.capacity), index):
                gap = WindowStats(start=gap_index * self.width, width=self.width)
                self._close(gap)
        fresh = WindowStats(start=index * self.width, width=self.width)
        self._current = fresh
        return fresh

    def _close(self, window: WindowStats) -> None:
        window.closed = True
        if self.on_close is not None:
            self.on_close(window)
        self._windows.append(window)
        self.windows_closed += 1

    def rows(self) -> List[WindowStats]:
        """Retained closed windows plus the open one, oldest first."""
        rows = list(self._windows)
        if self._current is not None:
            rows.append(self._current)
        return rows


class _CounterDeltas:
    """Window-close hook: what the cumulative counters gained since the last close.

    Holds the two counter objects it reads and nothing else.  The metrics
    bundle holds the telemetry, which holds the ring, which holds this hook:
    a hook that held the bundle (or the telemetry) back would make every
    world a reference cycle (see "The world lifecycle" in docs/architecture.md).
    """

    def __init__(self, cache: Any, regions: Any) -> None:
        self.cache = cache
        self.regions = regions
        #: Cumulative counters at the last window close (delta baselines).
        self.cache_baseline = (0, 0)
        self.wan_baseline: Dict[str, int] = {}

    def __call__(self, window: WindowStats) -> None:
        cache = self.cache
        hits, misses = self.cache_baseline
        window.cache_hits = cache.hits - hits
        window.cache_misses = cache.misses - misses
        self.cache_baseline = (cache.hits, cache.misses)
        totals: Dict[str, int] = {}
        for (src, dst), count in self.regions.bytes_by_pair.items():
            if src != dst:
                totals[src] = totals.get(src, 0) + count
        for src in sorted(totals):
            delta = totals[src] - self.wan_baseline.get(src, 0)
            if delta:
                window.cross_wan_bytes[src] = delta
        self.wan_baseline = totals


class LiveTelemetry:
    """Streaming sketches + windowed time-series for one simulation.

    Lives at ``Metrics.live`` (``CloudConfig.live_telemetry``) and is fed by
    the handle's fact methods only:

    * :meth:`observe_outcome` — ``txn_finished``, per finished transaction;
    * :meth:`record_lock_wait` — ``lock_wait_resolved``, per queued wait;
    * :meth:`record_proof_eval` — ``proof_evaluated``;
    * :meth:`record_stale` — ``stale_commit`` (the stale-commit tracker);
    * :meth:`record_policy_publication` — ``policy_published`` (storms).

    Memory is O(label cardinality + window capacity), never O(run length).
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        capacity: int = DEFAULT_WINDOW_COUNT,
        relative_accuracy: float = 0.01,
        metrics: Any = None,
    ) -> None:
        self.relative_accuracy = relative_accuracy
        self.latency = SketchFamily(
            "txn_latency", ("approach", "consistency", "region", "shard"), relative_accuracy
        )
        self.commit_phase = SketchFamily(
            "commit_phase", ("approach", "consistency", "region", "shard"), relative_accuracy
        )
        self.lock_wait = SketchFamily("lock_wait", ("region", "server"), relative_accuracy)
        self.proof_eval = SketchFamily(
            "proof_eval", ("region", "server", "phase"), relative_accuracy
        )
        self.windows = WindowRing(
            window,
            capacity,
            on_close=(
                _CounterDeltas(metrics.proof_cache, metrics.regions)
                if metrics is not None
                else None
            ),
        )
        self._region_of: Callable[[str], Optional[str]] = lambda node: None
        self._regions: Dict[str, str] = {}

    # -- wiring ----------------------------------------------------------------

    def bind_regions(self, region_of: Callable[[str], Optional[str]]) -> None:
        """Resolve node → region labels (the testbed passes the topology)."""
        self._region_of = region_of
        self._regions.clear()

    def _region(self, node: str) -> str:
        region = self._regions.get(node)
        if region is None:
            region = self._region_of(node) or NO_REGION
            self._regions[node] = region
        return region

    # -- feeds -----------------------------------------------------------------

    def observe_outcome(self, outcome: Any, coordinator: Optional[str] = None) -> None:
        """Fold one finished transaction into sketches and the window ring."""
        shard = coordinator or NO_REGION
        region = self._region(coordinator) if coordinator else NO_REGION
        labels = (outcome.approach, outcome.consistency, region, shard)
        self.latency.labels(*labels).add(outcome.latency)
        self.commit_phase.labels(*labels).add(outcome.commit_phase_time)
        window = self.windows.current(outcome.finished_at)
        window.txns += 1
        if outcome.committed:
            window.commits += 1
        else:
            window.aborts += 1

    def record_lock_wait(self, server: str, waited: float, now: float) -> None:
        self.lock_wait.labels(self._region(server), server).add(waited)
        self.windows.current(now).lock_waits += 1

    def record_proof_eval(self, server: str, phase: str, cost: float, now: float) -> None:
        self.proof_eval.labels(self._region(server), server, phase).add(cost)
        self.windows.current(now).proof_evals += 1

    def record_stale(self, now: float) -> None:
        """A committed-but-stale transaction (see StaleCommitTracker)."""
        self.windows.current(now).stale += 1

    def record_policy_publication(self, region: str, now: float) -> None:
        self.windows.current(now).policy_publications += 1

    # -- roll-ups and reporting ------------------------------------------------

    def approach_quantiles(
        self, fractions: Tuple[float, ...] = REPORT_FRACTIONS
    ) -> List[Dict[str, Any]]:
        """Per-(approach, consistency) latency quantiles, merged exactly
        across every region and shard sketch."""
        rows: List[Dict[str, Any]] = []
        for approach in self.latency.label_values("approach"):
            for consistency in self.latency.label_values("consistency"):
                merged = self.latency.merged(approach=approach, consistency=consistency)
                if not merged.count:
                    continue
                row: Dict[str, Any] = {
                    "approach": approach,
                    "consistency": consistency,
                    "count": merged.count,
                    "mean": merged.mean,
                }
                for fraction in fractions:
                    row[f"p{int(fraction * 100)}"] = merged.quantile(fraction)
                rows.append(row)
        return rows

    def sketch_families(
        self,
    ) -> List[Tuple[str, str, List[Tuple[Tuple[Tuple[str, str], ...], QuantileSketch]]]]:
        """``(family name, help text, series)`` rows for OpenMetrics export."""
        alpha = self.relative_accuracy
        return [
            (
                "repro_live_txn_latency",
                f"End-to-end transaction latency sketch (relative error {alpha}).",
                self.latency.series(),
            ),
            (
                "repro_live_commit_phase",
                f"Commit-phase duration sketch (relative error {alpha}).",
                self.commit_phase.series(),
            ),
            (
                "repro_live_lock_wait",
                f"Queued lock-wait duration sketch (relative error {alpha}).",
                self.lock_wait.series(),
            ),
            (
                "repro_live_proof_eval",
                f"Proof-evaluation cost sketch (relative error {alpha}).",
                self.proof_eval.series(),
            ),
        ]

    def window_series(self) -> List[Dict[str, Any]]:
        """The retained windows as JSON-ready rows, oldest first."""
        return [window.to_dict() for window in self.windows.rows()]

    def snapshot(self) -> Dict[str, Any]:
        """Everything, JSON-ready: sketches, roll-ups, and windows."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "quantiles": [
                {
                    key: (round(value, 4) if isinstance(value, float) else value)
                    for key, value in row.items()
                }
                for row in self.approach_quantiles()
            ],
            "families": {
                family.name: family.to_dict()
                for family in (
                    self.latency,
                    self.commit_phase,
                    self.lock_wait,
                    self.proof_eval,
                )
            },
            "windows": self.window_series(),
        }

    def report(self, now: Optional[float] = None, max_windows: int = 12) -> str:
        """Top-style plain-text snapshot (the ``python -m repro.obs.live`` view)."""
        lines: List[str] = []
        header = "live telemetry"
        if now is not None:
            header += f" @ t={now:.1f}"
        header += (
            f"  (sketch alpha={self.relative_accuracy}, "
            f"window={self.windows.width:g}, ring={self.windows.capacity})"
        )
        lines.append(header)
        quantiles = self.approach_quantiles()
        if quantiles:
            lines.append("")
            lines.append(
                f"{'approach':<14}{'consistency':<12}{'count':>8}"
                f"{'mean':>10}{'p50':>10}{'p95':>10}{'p99':>10}"
            )
            for row in quantiles:
                lines.append(
                    f"{row['approach']:<14}{row['consistency']:<12}{row['count']:>8}"
                    f"{row['mean']:>10.1f}{row['p50']:>10.1f}"
                    f"{row['p95']:>10.1f}{row['p99']:>10.1f}"
                )
        pooled_lock = self.lock_wait.merged()
        pooled_proof = self.proof_eval.merged()
        if pooled_lock.count or pooled_proof.count:
            lines.append("")
            for name, pooled in (("lock-wait", pooled_lock), ("proof-eval", pooled_proof)):
                if pooled.count:
                    lines.append(
                        f"{name:<12} count={pooled.count:<10} p50={pooled.quantile(0.5):.2f}  "
                        f"p95={pooled.quantile(0.95):.2f}  p99={pooled.quantile(0.99):.2f}"
                    )
        windows = self.windows.rows()
        if windows:
            lines.append("")
            lines.append(
                f"{'window':<20}{'txn/s':>8}{'commit%':>9}{'abort%':>8}"
                f"{'stale':>7}{'cache%':>8}{'xWAN B':>10}{'storms':>8}"
            )
            for window in windows[-max_windows:]:
                marker = "" if window.closed else " *open*"
                lines.append(
                    f"[{window.start:>8.0f},{window.end:>8.0f})"
                    f"{window.events_per_second:>8.3f}"
                    f"{100 * window.commit_rate:>9.1f}"
                    f"{100 * window.abort_rate:>8.1f}"
                    f"{window.stale:>7}"
                    f"{100 * window.cache_hit_rate:>8.1f}"
                    f"{window.total_cross_wan_bytes:>10}"
                    f"{window.policy_publications:>8}{marker}"
                )
        return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """Run a seeded multi-region workload and print the live snapshot.

    ``--inject-violation`` additionally seeds one conformance violation
    (an unreleased lock grant appended to the trace) and asserts the
    flight recorder produced a valid incident bundle — the CI smoke for
    the violation → flight-dump path.
    """
    import argparse
    import json as _json
    import random

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live", description=main.__doc__
    )
    parser.add_argument("--users", type=int, default=60, help="simulated users")
    parser.add_argument("--arrival-rate", type=float, default=0.3)
    parser.add_argument("--approach", default="deferred")
    parser.add_argument("--consistency", choices=("view", "global"), default="view")
    parser.add_argument("--window", type=float, default=DEFAULT_WINDOW)
    parser.add_argument("--windows", type=int, default=DEFAULT_WINDOW_COUNT)
    parser.add_argument("--accuracy", type=float, default=0.01, help="sketch alpha")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true", help="dump the snapshot as JSON")
    parser.add_argument(
        "--inject-violation",
        action="store_true",
        help="seed one conformance violation and require an incident bundle",
    )
    parser.add_argument(
        "--dump-dir", default=None, help="write the incident bundle here (with --inject-violation)"
    )
    args = parser.parse_args(argv)

    # Local imports: the workload layer sits above repro.obs.
    from repro.cloud.config import CloudConfig
    from repro.core.consistency import ConsistencyLevel
    from repro.obs.openmetrics import validate_openmetrics
    from repro.workloads.runner import OpenLoopRunner
    from repro.workloads.scale import (
        ScaleWorkloadSpec,
        iter_scale_workload,
        mint_user_credentials,
    )
    from repro.workloads.testbed import build_multiregion_cluster

    config = CloudConfig(
        request_timeout=3000.0,
        live_telemetry=True,
        telemetry_window=args.window,
        telemetry_windows=args.windows,
        sketch_accuracy=args.accuracy,
        flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=1, items_per_shard=8, seed=args.seed, config=config
    )
    spec = ScaleWorkloadSpec(n_users=args.users, arrival_rate=args.arrival_rate)
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = iter_scale_workload(
        spec, cluster.shards, random.Random(args.seed + 1), credentials
    )
    consistency = (
        ConsistencyLevel.VIEW if args.consistency == "view" else ConsistencyLevel.GLOBAL
    )
    runner = OpenLoopRunner(cluster, args.approach, consistency)
    runner.run_scheduled(schedule)

    live = cluster.metrics.live
    assert live is not None
    if args.json:
        print(_json.dumps(live.snapshot(), indent=2, sort_keys=True))
    else:
        print(live.report(now=cluster.env.now))

    if not args.inject_violation:
        return 0

    # Seed exactly one anomaly: a lock grant that is never released breaks
    # the strict-2PL discipline the sanitizer enforces.  The grant must
    # reference a *finished* transaction — the checker only examines
    # transactions with an outcome.
    target = next(
        (outcome for tm in cluster.tms for outcome in tm.outcomes), None
    )
    if target is None:
        print("FLIGHT SMOKE FAILED: no finished transaction to corrupt", flush=True)
        return 2
    any_server = sorted(cluster.servers)[0]
    cluster.tracer.record(
        cluster.env.now,
        "lock.grant",
        key="seeded/item",
        mode="X",
        server=any_server,
        txn_id=target.txn_id,
    )
    report = cluster.verify()
    flight = cluster.metrics.flight
    bundle = flight.last_bundle if flight is not None else None
    if not report.violations or bundle is None:
        print("FLIGHT SMOKE FAILED: no violation/bundle produced", flush=True)
        return 2
    if bundle.openmetrics is None:
        print("FLIGHT SMOKE FAILED: bundle has no metrics snapshot", flush=True)
        return 2
    validate_openmetrics(bundle.openmetrics)
    if not bundle.events:
        print("FLIGHT SMOKE FAILED: bundle event window empty", flush=True)
        return 2
    if args.dump_dir:
        path = bundle.write(args.dump_dir)
        print(f"\nincident bundle written to {path}")
    print(
        f"\nflight smoke OK: {len(report.violations)} seeded violation(s), "
        f"bundle holds {len(bundle.events)} events across "
        f"{len(flight.nodes())} nodes"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    import sys

    sys.exit(main())
