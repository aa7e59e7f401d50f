#!/usr/bin/env python3
"""The repo's benchmark: four end-to-end workloads, host time per module.

    python3 benchmarks/perf/run.py                      # everything, ~2 min
    python3 benchmarks/perf/run.py --workload dc-churn --seed 7 --reps 5
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --smoke              # 1/10 size, checked

Every (workload, repetition) runs in a fresh child process, one at a time,
so set-up time and peak RSS are per run.  A child builds its inputs from the
seed, times the one public run call with ``time.perf_counter()`` and reports
simulated statistics next to the host cost of producing them.  End-to-end
metrics come from untraced children; one more child per workload runs with
the zone profiler of ``zones.py`` installed and gives the per-layer numbers.
Metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repo root; the README here is the glossary.

Driver form (one workload, one JSON object as the last line of output):

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric.  A workload's size is fixed (its simulated statistics must be a
function of the seed alone), so ``--seconds`` is the measured time to reach:
whole repetitions run until their timed phases add up to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
KNOWN_FAILURES_PATH = HERE / "known_failures.json"

DEFAULT_SEED = 83
DEFAULT_REPS = 3
SMOKE_SCALE = 0.1
#: The driver form runs at least this many repetitions, so every host
#: metric — set-up time too — is a median.
MIN_REPS = 3
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Stop adding repetitions once one more would not fit the driver's limit.
INVOCATION_BUDGET_S = 150.0
#: Zones must telescope: at most this share of the traced wall unattributed.
MAX_UNATTRIBUTED = 0.02


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    try:
        return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc


# -- the child: one run of one workload ------------------------------------------


def layer_metrics(workload: Any, zones: Any, wall_s: float) -> Dict[str, float]:
    """Every per-layer number one traced run gives, by metric name.

    ``self_s``/``share`` come from the zones; counts come from public
    counters, call counts at the wrapped boundaries, and the outcomes.
    """
    from repro.errors import AbortReason
    from repro.metrics.stats import percentile

    from zones import UNATTRIBUTED, ZONE_NAMES

    stats = workload.stats
    counters, calls, self_s = stats.counters, zones.calls, zones.self_s
    decided = max(stats.decided, 1)
    lookups = counters["policy.proofcache.lookups"]
    values: Dict[str, float] = dict(counters)
    values.update(
        {
            "sim.kernel.resumes": calls["resume"],
            "sim.topology.size_calls": calls["sim.topology:estimate_message_size"],
            "db.locks.acquires": calls["db.locks:acquire"],
            "db.locks.waits": len(workload.lock_waits),
            "db.locks.sim_wait_p95": percentile(workload.lock_waits, 0.95),
            "db.locks.deadlocks": stats.abort_reasons[AbortReason.DEADLOCK.value],
            "policy.proofcache.hit_ratio": (
                counters["policy.proofcache.hits"] / lookups if lookups else 0.0
            ),
            "cloud.server.handled": calls["cloud.server:handle_message"],
            "cloud.replication.publications": calls["cloud.replication:distribute"],
            "transactions.manager.voting_rounds_per_txn": stats.voting_rounds / decided,
            "transactions.manager.commit_rounds_per_txn": stats.commit_rounds / decided,
            "transactions.abort_frac": 1.0 - stats.commits / decided,
            "transactions.commit_p50": percentile(stats.commit_latency, 0.50),
            "transactions.goodput": stats.goodput(),
            "analysis.stale_commit_frac": (
                counters["analysis.stale_commits"] / max(stats.commits, 1)
            ),
            "trace.unattributed_share": self_s[UNATTRIBUTED] / wall_s,
        }
    )
    for reason in AbortReason:
        values[f"transactions.abort.{reason.value}"] = stats.abort_reasons[reason.value]
    for zone in ZONE_NAMES:
        values[f"{zone}.self_s"] = self_s[zone]
        values[f"{zone}.share"] = self_s[zone] / wall_s
    values["verify.collect_s"] = self_s["verify.collect"]
    values["verify.check_s"] = self_s["verify.check"]
    return values


def child_main(args: argparse.Namespace) -> int:
    """Set up, run and check one workload; print one JSON object."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, scale=args.scale, verify=args.verify)
    zones = None
    if args.trace:
        import zones as zones_module

        zones = zones_module.Zones()
        zones_module.install(zones, workload.observers())
    workload.prepare()
    gc.collect()
    result: Dict[str, Any] = {"setup_s": time.perf_counter() - args.t0}
    start = time.perf_counter()
    if zones is None:
        workload.run()
    else:
        zones.call(zones_module.UNATTRIBUTED, "root", workload.run)
        zones = zones.snapshot()  # collect() below still runs wrapped code
    wall_s = time.perf_counter() - start
    workload.collect()

    stats = workload.stats
    result.update(
        wall_s=wall_s,
        txn_per_s=stats.decided / wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **stats.end_to_end(),
        sim_digest=stats.hexdigest(),
        operation=workload.operation,
        attempted=workload.attempted,
        failed=workload.failed,
        decided=stats.decided,
        commits=stats.commits,
        problems=workload.problems,
        violating=workload.violating,
    )
    if zones is not None:
        result["zones_total_s"] = zones.total_s()
        result["layers"] = layer_metrics(workload, zones, wall_s)
        OUT_DIR.mkdir(exist_ok=True)
        zones.write_samples(str(OUT_DIR / f"trace-{args.workload}.jsonl"))
    if args.dump_plan:
        result["plan"] = workload.plan.to_dict()
        result["n_transactions"] = workload.n_transactions
    print(json.dumps(result))
    return 0


def spawn_child(
    workload: str,
    seed: int,
    trace: bool = False,
    scale: float = 1.0,
    verify: bool = False,
    dump_plan: bool = False,
) -> Dict[str, Any]:
    """Run one child to completion and return what it reported.

    ``perf_counter`` is the system-wide monotonic clock, so the child can
    measure its set-up from the instant the parent spawned it — interpreter
    start and imports included.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", "1" if trace else "0", "--t0", repr(time.perf_counter()),
    ]  # fmt: skip
    for flag, on in (("--verify", verify), ("--dump-plan", dump_plan)):
        if on:
            command.append(flag)
    # A fixed hash seed keeps dict/set layouts — and so host time — the same
    # from run to run; simulated results do not depend on it.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the parent: repetitions, summaries, checks ------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: normalises numbers across hosts."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calib_s": calibrate(),
    }


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and n of one metric's repetitions."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def measure(
    spec: Mapping[str, Any],
    workload: str,
    seed: int,
    reps: Optional[int] = None,
    seconds: float = 0.0,
    traced: bool = True,
    scale: float = 1.0,
    verify: bool = False,
) -> Dict[str, Any]:
    """All runs of one workload at one seed, summarised and checked.

    ``reps`` untraced repetitions (or at least ``MIN_REPS`` and as many as it
    takes to time ``seconds``) and one traced run.  Returns
    ``end_to_end`` summaries, ``per_layer`` values, the digest, the operation
    counts and every ``problems`` line; an empty list means correct.
    """
    began = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    measured = 0.0
    while True:
        child_began = time.perf_counter()
        runs.append(spawn_child(workload, seed, scale=scale, verify=verify))
        measured += runs[-1]["wall_s"]
        child_took = time.perf_counter() - child_began
        if reps is not None:
            if len(runs) >= reps:
                break
        elif (len(runs) >= MIN_REPS and measured >= seconds) or (
            time.perf_counter() - began + child_took > INVOCATION_BUDGET_S
        ):
            break

    problems: List[str] = []
    out: Dict[str, Any] = {"workload": workload, "seed": seed, "problems": problems}
    reference = runs[0]
    sim_names = [m["name"] for m in spec["end_to_end"] if m["name"].startswith("sim_")]
    for run in runs:
        problems.extend(run["problems"])
        for name in ["sim_digest", "failed", *sim_names]:
            if run[name] != reference[name]:
                problems.append(f"{workload}: {name} differs between repetitions")
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        end_to_end[name] = {**summarise([run[name] for run in runs]), "unit": metric["unit"]}
    out["end_to_end"] = end_to_end

    if traced:
        run = spawn_child(workload, seed, trace=True, scale=scale, verify=verify)
        problems.extend(run["problems"])
        layers = run["layers"]
        layers["trace.overhead_ratio"] = run["wall_s"] / end_to_end["wall_s"]["median"]
        if run["sim_digest"] != reference["sim_digest"]:
            problems.append(f"{workload}: traced sim_digest differs from untraced")
        if abs(run["zones_total_s"] - run["wall_s"]) > 0.001 * run["wall_s"]:
            problems.append(f"{workload}: zones do not sum to the traced wall time")
        if layers["trace.unattributed_share"] > MAX_UNATTRIBUTED:
            problems.append(
                f"{workload}: {layers['trace.unattributed_share']:.1%} of the traced "
                f"wall time is unattributed (limit {MAX_UNATTRIBUTED:.0%})"
            )
        per_layer = {}
        for metric in spec["per_layer"]:
            if metric["name"] not in layers:
                raise BenchError(f"per-layer metric {metric['name']!r} is not produced")
            per_layer[metric["name"]] = {"value": layers[metric["name"]], "unit": metric["unit"]}
        out["per_layer"] = per_layer
        out["traced_wall_s"] = run["wall_s"]

    for key in ("sim_digest", "operation", "attempted", "failed", "decided", "commits",
                "violating"):
        out[key] = reference[key]
    return out


def print_measurement(result: Mapping[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"({result['operation']}s)  decided={result['decided']} commits={result['commits']}")
    print(f"   sim_digest={result['sim_digest']}")
    if result["violating"]:
        print(f"   ops_violating={len(result['violating'])} (cases with a conformance violation)")
    for name, s in result["end_to_end"].items():
        print(f"   {name:<24} {s['median']:>14.6g} {s['unit']:<10} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for name, s in result["per_layer"].items():
        print(f"   {name:<44} {s['value']:>14.6g} {s['unit']}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def run_all(args: argparse.Namespace, spec: Mapping[str, Any]) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    host = host_info()
    print(f"host: nproc={host['nproc']} python={host['python']} calib_s={host['calib_s']:.4f}")
    results = {}
    for name in names:
        results[name] = measure(spec, name, args.seed, reps=args.reps)
        print_measurement(results[name])
    if args.out:
        report = {"host": host, "seed": args.seed, "reps": args.reps, "workloads": results}
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")
    failed = [p for result in results.values() for p in result["problems"]]
    return 1 if failed else 0


def run_driver(args: argparse.Namespace, spec: Mapping[str, Any]) -> int:
    """One workload for the driver: one JSON object as the last line."""
    if args.trace:
        # One untraced run beside the traced one: the overhead ratio's base
        # and the digest the traced run must reproduce.
        result = measure(spec, args.workload, args.seed, reps=1, scale=args.scale)
    else:
        result = measure(
            spec, args.workload, args.seed, seconds=args.seconds or 0.0, traced=False,
            scale=args.scale,
        )
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in result["end_to_end"].items()
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))  # fmt: skip
    return 0


def run_smoke(spec: Mapping[str, Any], seed: int = DEFAULT_SEED) -> List[str]:
    """Every workload at 1/10 size, tracer on, conformance-checked.

    Two untraced repetitions and a traced one per workload; returns every
    failed check (empty = pass).
    """
    problems: List[str] = []
    for workload in spec["workloads"]:
        result = measure(spec, workload["name"], seed, reps=2, scale=SMOKE_SCALE, verify=True)
        print_measurement(result)
        problems.extend(result["problems"])
    return problems


# -- comparing two result files --------------------------------------------------------


def verdict(a: Mapping[str, Any], b: Mapping[str, Any], better: str, bound: float) -> str:
    """B against A for one metric: better / same / worse / unresolved.

    ``worse`` when B's median is worse than A's by more than the bound.
    Otherwise ``unresolved`` when either side's inter-quartile spread exceeds
    the bound — unless every run of B reads better than every run of A —
    and ``better`` when B wins by more than A's own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    if worse_by > bound:
        return "worse"
    b_always_better = max(sign * v for v in b["values"]) < min(sign * v for v in a["values"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    if spread > bound:
        return "better" if b_always_better else "unresolved"
    if worse_by < 0 and -worse_by * base > (a["q3"] - a["q1"]):
        return "better"
    return "same"


def run_compare(paths: Sequence[str], spec: Mapping[str, Any]) -> int:
    a_report, b_report = (json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in paths)
    worse = 0
    print(f"{'workload':<13} {'metric':<22} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'bound':>6}  verdict")
    for name, a_run in a_report["workloads"].items():
        b_run = b_report["workloads"].get(name)
        if b_run is None:
            continue
        for key in ("sim_digest", "failed"):
            if a_run[key] != b_run[key]:
                print(f"{name:<13} {key} differs: {a_run[key]} vs {b_run[key]}")
                worse += 1
        for metric in spec["end_to_end"]:
            a, b = a_run["end_to_end"][metric["name"]], b_run["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]" for s in (a, b)]
            print(f"{name:<13} {metric['name']:<22} {cells[0]:<38} {cells[1]:<38} "
                  f"{metric['bound']:>6.3f}  {result}")
    return 1 if worse else 0


def record_known_failures() -> int:
    """Rewrite known_failures.json from a chaos-grid run at the default seed."""
    run = spawn_child("chaos-grid", DEFAULT_SEED, dump_plan=True)
    record = {
        "note": "chaos-grid cases that end with a conformance violation at the default "
                "seed; replay one with repro.chaos.fuzz.run_case(FuzzCase(seed=..., "
                "plan=FaultPlan.from_dict(plan), approach=..., consistency=..., "
                "n_transactions=n_transactions))",
        "seed": DEFAULT_SEED,
        "n_transactions": run["n_transactions"],
        "plan": run["plan"],
        "cases": run["violating"],
    }
    KNOWN_FAILURES_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {KNOWN_FAILURES_PATH} ({len(run['violating'])} cases)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="untraced repetitions per workload")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver form: measured time to reach")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true", help="1/10 size, every check on")
    parser.add_argument("--record-known-failures", action="store_true")
    for flag in ("--child", "--verify", "--dump-plan"):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        spec = load_spec()
        known = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(known)}")
        if args.compare:
            return run_compare(args.compare, spec)
        if args.record_known_failures:
            return record_known_failures()
        if args.smoke:
            problems = run_smoke(spec, args.seed)
            print("\nsmoke: " + ("ok" if not problems else f"{len(problems)} failed checks"))
            return 1 if problems else 0
        if args.trace is not None or args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds/--trace need --workload")
            return run_driver(args, spec)
        return run_all(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
