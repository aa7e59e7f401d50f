"""Wall-clock benchmark for the span-tracing subsystem (``repro.obs``).

Measures, on the host clock:

* **recording overhead** — end-to-end wall-clock of a Continuous workload
  with ``CloudConfig.obs_spans`` off vs on at the default sampling rate
  (1.0).  Spans are default-on in the testbed, so this ratio is the price
  every simulation pays; the CI gate holds it at ≤ 1.20x.
* **sampling** — the same workload at a 0.2 sampling rate, to show the
  knob works (fewer spans, overhead between off and fully on).
* **live overhead** — the same baseline against sketches + windows + flight
  rings on; the CI gate holds it at ≤ 1.25x.
* **analysis throughput** — spans/second of the pure post-run passes:
  well-formedness checking, critical-path attribution, and OpenMetrics
  rendering over the recorded run.

An overhead is the *median ratio over interleaved pairs* (off then on, on
then off, ...; :func:`n_pairs` of them), reported with its quartiles, on a
workload sized so one baseline run takes ≥ 0.3 s even with ``--quick``.

Every measured run must come back with zero span-tree problems — a
malformed trace is a correctness failure, not a benchmark result, and
exits non-zero.

Writes ``BENCH_obs.json`` (repo root by default).  Run:

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.obs.critical import attribute_latency
from repro.obs.crosscheck import crosscheck_spans
from repro.obs.openmetrics import render_openmetrics
from repro.obs.spans import check_all_trees
from repro.workloads.generator import (
    WorkloadSpec,
    poisson_arrivals,
    uniform_transactions,
)
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.testbed import build_cluster

SEED = 61


def n_transactions(quick: bool) -> int:
    """Workload size: about 0.4 s / 0.8 s per spans-off run (quick / full)."""
    return 300 if quick else 600


def n_pairs(quick: bool) -> int:
    """Interleaved off/on pairs behind each overhead ratio (quick / full)."""
    return 7 if quick else 9


def paired_seconds(
    off: Callable[[], Any],
    on: Callable[[], Any],
    pairs: int,
    after_on: Callable[[Any], None] = lambda cluster: None,
) -> List[Tuple[float, float]]:
    """``(off, on)`` wall seconds of ``pairs`` interleaved runs, the side
    that goes first alternating, so drift of the host lands on both.  One
    untimed run of each side comes first (imports, allocator warm-up);
    ``after_on`` sees what each ``on`` run returned, outside its clock."""

    def seconds(run: Callable[[], Any]) -> Tuple[float, Any]:
        gc.collect()  # the previous world is cyclic garbage: not on this run's clock
        start = time.perf_counter()
        result = run()
        return time.perf_counter() - start, result

    off()
    on()
    out = []
    for index in range(pairs):
        if index % 2 == 0:
            off_s, _ = seconds(off)
            on_s, result = seconds(on)
        else:
            on_s, result = seconds(on)
            off_s, _ = seconds(off)
        after_on(result)
        out.append((off_s, on_s))
    return out


def ratio_summary(timings: List[Tuple[float, float]], name: str) -> Dict[str, Any]:
    """Median and quartiles of on/off over the pairs, plus the pair count."""
    ratios = [on_s / off_s for off_s, on_s in timings]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "pairs": len(timings),
        name: round(median, 4),
        f"{name}_q1": round(q1, 4),
        f"{name}_q3": round(q3, 4),
    }


def run_workload(
    quick: bool,
    obs_spans: bool,
    sample_rate: float = 1.0,
    approach: str = "continuous",
    live_telemetry: bool = False,
    flight_recorder: bool = False,
) -> Any:
    """One seeded open-loop workload with benign churn; returns the cluster."""
    from repro.workloads.updates import PolicyUpdateProcess

    n_txns = n_transactions(quick)
    cluster = build_cluster(
        n_servers=3,
        items_per_server=4,
        seed=SEED,
        config=CloudConfig(
            obs_spans=obs_spans,
            obs_sample_rate=sample_rate,
            live_telemetry=live_telemetry,
            flight_recorder=flight_recorder,
        ),
    )
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=3, read_fraction=0.7, count=n_txns, user="alice")
    txns = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    arrivals = poisson_arrivals(
        cluster.rng.stream("arrivals"), rate=0.05, count=len(txns)
    )
    PolicyUpdateProcess(
        cluster,
        "app",
        interval=40.0,
        rng=cluster.rng.stream("updates"),
        mode="benign",
        count=max(2, n_txns // 3),
    ).start()
    OpenLoopRunner(cluster, approach, ConsistencyLevel.VIEW).run(txns, arrivals)
    return cluster


def _span_count(cluster: Any) -> int:
    return len(cluster.obs)


def _problem_count(cluster: Any) -> int:
    problems = check_all_trees(cluster.obs)
    problems.extend(crosscheck_spans(cluster.obs, cluster.tracer))
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return len(problems)


def measure_recording_overhead(quick: bool) -> Dict[str, Any]:
    """Wall-clock of a Continuous workload with spans off vs on vs sampled."""
    pairs = n_pairs(quick)
    result: Dict[str, Any] = {"approach": "continuous", "problems": 0}

    def checked(key: str) -> Callable[[Any], None]:
        def check(cluster: Any) -> None:
            result["problems"] += _problem_count(cluster)
            result[f"{key}_spans"] = _span_count(cluster)

        return check

    def off() -> Any:
        return run_workload(quick, False)

    timings = paired_seconds(off, lambda: run_workload(quick, True), pairs, checked("on"))
    sampled = paired_seconds(
        off, lambda: run_workload(quick, True, 0.2), pairs, checked("sampled")
    )
    baseline = statistics.median(off_s for off_s, _ in timings)
    traced_seconds = statistics.median(on_s for _, on_s in timings)
    result.update(
        {
            "baseline_seconds": round(baseline, 6),
            "traced_seconds": round(traced_seconds, 6),
            "sampled_seconds": round(statistics.median(on_s for _, on_s in sampled), 6),
            "overhead_seconds": round(traced_seconds - baseline, 6),
            **ratio_summary(timings, "overhead_ratio"),
            "sampled_overhead_ratio": round(
                statistics.median(on_s / off_s for off_s, on_s in sampled), 4
            ),
            "sample_rate": 0.2,
        }
    )
    return result


def measure_live_overhead(quick: bool) -> Dict[str, Any]:
    """Wall-clock cost of the streaming telemetry layer (sketches +
    windows + flight rings), measured against the same spans-off baseline
    the recording gate uses.  The CI gate holds the ratio at ≤ 1.25x."""
    result: Dict[str, Any] = {"approach": "continuous"}

    def counted(cluster: Any) -> None:
        telemetry = cluster.metrics.live
        result["sketch_series"] = len(telemetry.latency) + len(
            telemetry.lock_wait
        ) + len(telemetry.proof_eval)
        result["windows"] = len(telemetry.windows.rows())
        result["flight_events"] = cluster.metrics.flight.recorded

    timings = paired_seconds(
        lambda: run_workload(quick, obs_spans=False),
        lambda: run_workload(quick, obs_spans=False, live_telemetry=True, flight_recorder=True),
        n_pairs(quick),
        counted,
    )
    result.update(
        {
            "baseline_seconds": round(statistics.median(off_s for off_s, _ in timings), 6),
            "live_seconds": round(statistics.median(on_s for _, on_s in timings), 6),
            **ratio_summary(timings, "live_overhead_ratio"),
        }
    )
    return result


def measure_analysis_throughput(quick: bool, repeats: int) -> Dict[str, Any]:
    """spans/sec of the pure post-run passes over one recorded run."""
    cluster = run_workload(quick, obs_spans=True)
    recorder = cluster.obs
    n_spans = _span_count(cluster)

    def best_of(fn: Any) -> float:
        fn()  # warm-up
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    check = best_of(lambda: check_all_trees(recorder))
    attribute = best_of(
        lambda: [attribute_latency(recorder.tree(t)) for t in recorder.traces()]
    )
    render = best_of(lambda: render_openmetrics(cluster.metrics, recorder))
    return {
        "spans": n_spans,
        "traces": len(list(recorder.traces())),
        "check_seconds": round(check, 6),
        "check_spans_per_second": round(n_spans / check) if check else None,
        "attribute_seconds": round(attribute, 6),
        "attribute_spans_per_second": round(n_spans / attribute) if attribute else None,
        "openmetrics_seconds": round(render, 6),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of repeats of the analysis passes"
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None,
        help="fail if overhead_ratio (the median over the pairs) exceeds this "
        "(the CI gate passes 1.20)",
    )
    parser.add_argument(
        "--max-live-overhead", type=float, default=None,
        help="fail if live_overhead_ratio (sketches + windows + flight rings "
        "enabled) exceeds this (the CI gate passes 1.25)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 5)

    report = {
        "bench": "obs",
        "quick": bool(args.quick),
        "workload": {
            "n_servers": 3,
            "txn_length": 3,
            "n_transactions": n_transactions(args.quick),
            "update_interval": 40.0,
            "seed": SEED,
        },
        "recording_overhead": measure_recording_overhead(args.quick),
        "live_overhead": measure_live_overhead(args.quick),
        "analysis_throughput": measure_analysis_throughput(args.quick, repeats),
    }
    clean = report["recording_overhead"]["problems"] == 0
    report["all_trees_well_formed"] = clean

    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")
    if not clean:
        print("SPAN TREES MALFORMED", file=sys.stderr)
        return 1
    ratio = report["recording_overhead"]["overhead_ratio"]
    if args.max_overhead is not None and ratio > args.max_overhead:
        print(
            f"OVERHEAD GATE FAILED: {ratio} > {args.max_overhead}", file=sys.stderr
        )
        return 1
    live_ratio = report["live_overhead"]["live_overhead_ratio"]
    if args.max_live_overhead is not None and live_ratio > args.max_live_overhead:
        print(
            f"LIVE-TELEMETRY OVERHEAD GATE FAILED: {live_ratio} > "
            f"{args.max_live_overhead}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
