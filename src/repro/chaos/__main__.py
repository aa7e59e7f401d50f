"""Chaos engine CLI: ``python -m repro.chaos``.

Three modes, composable with ``--out`` (incident artifacts) and the shared
workload/cluster knobs:

``--demo``
    The engineered contrast demonstration: three hand-built fault
    schedules (asymmetric policy staleness, global staleness, mid-run
    revocation) that drive the **weak** access-control baseline into
    classified anomalies — fractured policy view (φ), stale-policy commit
    (ψ), unauthorized commits (Def. 4) — while the paper's four approaches
    stay verify-clean under the *same* schedules.  Each violating weak
    case is ddmin-shrunk and printed as a counterexample.

``--nemesis``
    The hardening gate: the full approach × consistency grid under the
    default nemesis (1% message drop + one participant crash mid-run).
    Every cell must be conformance-clean; any violation fails the run.

default (fuzz)
    The seeded fuzzer: ``--cases`` random fault plans (from ``--seed``),
    each swept across the paper grid and verified.  Violations are
    classified, shrunk, and dumped; any paper-approach violation or any
    *unclassified* anomaly fails the run.

Exit status is non-zero exactly when the mode's expectation is broken, so
CI can gate on it (see .github/workflows/ci.yml ``chaos-smoke``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.chaos.classify import UNCLASSIFIED
from repro.chaos.fuzz import CaseResult, FuzzCase, run_case, sweep
from repro.chaos.plan import FaultPlan, FaultSpec, random_plan
from repro.chaos.shrink import shrink_case
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.sim.rng import RandomStreams


def default_nemesis(n_servers: int) -> FaultPlan:
    """1% drop throughout plus one mid-run participant crash-and-restart."""
    victim = f"s{min(2, n_servers)}"
    return FaultPlan(
        (
            FaultSpec("drop_rate", at=0.0, duration=200.0, rate=0.01),
            FaultSpec("crash", at=20.0, node=victim, down_for=30.0),
        ),
        label="default-nemesis",
    )


def demo_scenarios(admin: str = "app") -> List[Tuple[str, str, FaultPlan]]:
    """(name, consistency, plan) triples for the contrast demonstration."""
    return [
        (
            "phi-staleness",
            "view",
            FaultPlan(
                (
                    FaultSpec("policy_churn", at=10.0, admin=admin, delay=40.0),
                    FaultSpec("policy_churn", at=25.0, admin=admin, delay=40.0),
                ),
                label="phi-demo",
            ),
        ),
        (
            "psi-staleness",
            "global",
            FaultPlan(
                (FaultSpec("policy_churn", at=10.0, admin=admin, delay=200.0),),
                label="psi-demo",
            ),
        ),
        (
            "revocation",
            "view",
            FaultPlan(
                (FaultSpec("policy_churn", at=8.0, admin=admin, delay=2.0, revoke=True),),
                label="revoke-demo",
            ),
        ),
    ]


def _write_artifacts(
    out: Optional[pathlib.Path], name: str, result: CaseResult, shrunk: Optional[FuzzCase]
) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "case": result.case.to_dict(),
        "violations": list(result.violation_codes),
        "anomalies": [anomaly.describe() for anomaly in result.anomalies],
        "unsafe_commits": result.unsafe_commits,
        "trace_digest": result.trace_digest,
    }
    if shrunk is not None:
        record["shrunk_case"] = shrunk.to_dict()
    path = out / f"counterexample-{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for index, bundle in enumerate(result.bundles):
        bundle.write(out / f"bundle-{name}-{index}")


def _print_result(result: CaseResult, indent: str = "  ") -> None:
    print(f"{indent}{result.summary()}")
    for anomaly in result.anomalies:
        print(f"{indent}  - {anomaly.describe()}")


def run_demo(args: argparse.Namespace, out: Optional[pathlib.Path]) -> int:
    failures = 0
    for name, consistency, plan in demo_scenarios():
        print(f"scenario {name} ({consistency} consistency): {plan.label}")
        base = FuzzCase(
            seed=args.seed,
            plan=plan,
            consistency=consistency,
            n_transactions=args.transactions,
            n_servers=args.servers,
        )
        weak = run_case(replace(base, approach="weak"), flight=True)
        _print_result(weak)
        if weak.ok:
            print("  FAIL: the weak baseline was expected to violate here")
            failures += 1
        else:
            outcome = shrink_case(replace(base, approach="weak"))
            shrunk_plan = outcome.case.plan
            print(
                f"  shrunk to {len(shrunk_plan)} fault(s), "
                f"{outcome.case.n_transactions} txn(s) in {outcome.runs} runs:"
            )
            for line in shrunk_plan.describe().splitlines():
                print(f"    {line}")
            if len(shrunk_plan) > 5:
                print("  FAIL: shrunk counterexample still has more than 5 faults")
                failures += 1
            _write_artifacts(out, name, weak, outcome.case)
        for cell in sweep(base, approaches=PAPER_APPROACHES, consistencies=(consistency,)):
            _print_result(cell)
            if not cell.ok:
                print(f"  FAIL: paper approach {cell.case.approach} violated")
                failures += 1
        print()
    return failures


def run_nemesis(args: argparse.Namespace, out: Optional[pathlib.Path]) -> int:
    failures = 0
    plan = default_nemesis(args.servers)
    print(f"default nemesis over the {len(PAPER_APPROACHES)}x{len(CONSISTENCY_LEVELS)} grid:")
    for line in plan.describe().splitlines():
        print(f"  {line}")
    base = FuzzCase(
        seed=args.seed,
        plan=plan,
        n_transactions=args.transactions,
        n_servers=args.servers,
    )
    for cell in sweep(base, flight=True):
        _print_result(cell)
        if not cell.ok:
            failures += 1
            _write_artifacts(
                out, f"nemesis-{cell.case.approach}-{cell.case.consistency}", cell, None
            )
    return failures


def run_fuzz(args: argparse.Namespace, out: Optional[pathlib.Path]) -> int:
    failures = 0
    streams = RandomStreams(args.seed)
    nodes = [f"s{index}" for index in range(1, args.servers + 1)]
    # Wall-clock budget for CI smoke runs: the *schedule* of cases is
    # seeded and deterministic; the budget only truncates how many run.
    deadline = (
        time.monotonic() + args.budget_seconds  # verify: ignore[DET001] -- CLI fuzz budget, not simulation state
        if args.budget_seconds is not None
        else None
    )
    executed = 0
    for index in range(args.cases):
        if deadline is not None and time.monotonic() > deadline:  # verify: ignore[DET001] -- CLI fuzz budget, not simulation state
            print(f"budget exhausted after {executed} of {args.cases} case(s)")
            break
        plan = random_plan(
            streams.stream(f"plan-{index}"),
            nodes=nodes,
            admins=["app"],
            horizon=args.transactions * 6.0,
            n_faults=args.faults,
            label=f"fuzz-{args.seed}-{index}",
        )
        print(f"case {index}: {plan.label}")
        for line in plan.describe().splitlines():
            print(f"  {line}")
        base = FuzzCase(
            seed=args.seed + index,
            plan=plan,
            n_transactions=args.transactions,
            n_servers=args.servers,
        )
        for cell in sweep(base, flight=True):
            executed += 1
            _print_result(cell)
            unclassified = [a for a in cell.anomalies if a.name == UNCLASSIFIED]
            if unclassified:
                print("  FAIL: unclassified anomaly (taxonomy incomplete)")
                failures += 1
            if not cell.ok:
                failures += 1
                outcome = shrink_case(cell.case)
                print(
                    f"  shrunk to {len(outcome.case.plan)} fault(s) "
                    f"in {outcome.runs} runs"
                )
                _write_artifacts(
                    out,
                    f"fuzz-{index}-{cell.case.approach}-{cell.case.consistency}",
                    cell,
                    outcome.case,
                )
        print()
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded fault-schedule fuzzer for the 2PV/2PVC testbed.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--cases", type=int, default=3, help="random fault plans to fuzz (default 3)"
    )
    parser.add_argument(
        "--faults", type=int, default=3, help="faults per random plan (default 3)"
    )
    parser.add_argument(
        "--transactions", type=int, default=6, help="transactions per case (default 6)"
    )
    parser.add_argument(
        "--servers", type=int, default=3, help="cloud servers per cluster (default 3)"
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="wall-clock budget for the fuzz loop (CI smoke)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="directory for incident artifacts"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--demo", action="store_true", help="run the engineered contrast demonstration"
    )
    mode.add_argument(
        "--nemesis", action="store_true", help="run the grid under the default nemesis"
    )
    args = parser.parse_args(argv)

    if args.demo:
        failures = run_demo(args, args.out)
    elif args.nemesis:
        failures = run_nemesis(args, args.out)
    else:
        failures = run_fuzz(args, args.out)

    if failures:
        print(f"chaos: {failures} failing expectation(s)")
        return 1
    print("chaos: all expectations held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
