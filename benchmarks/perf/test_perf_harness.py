"""Checks of the benchmark harness itself, at 1/10 size.

    python -m pytest benchmarks/perf -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): these spawn the
benchmark's child processes and take about half a minute.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as perf  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = perf.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_measured = {}


def smoke(workload: str) -> dict:
    """Two untraced repetitions and a traced run of one workload, once."""
    if workload not in _measured:
        _measured[workload] = perf.measure(
            SPEC, workload, perf.DEFAULT_SEED, reps=2, scale=perf.SMOKE_SCALE, verify=True
        )
    return _measured[workload]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    """Conformance clean, traced digest == untraced digest, repetitions agree
    on every simulated statistic, zones telescope (all inside ``measure``)."""
    result = smoke(workload)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_names_match_benchmark_json(workload):
    result = smoke(workload)
    assert list(result["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    for summary in result["end_to_end"].values():
        assert summary["median"] != 0, "end-to-end metrics must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_listed_zones_telescope_to_the_traced_wall(workload):
    """BENCHMARK.json lists every zone: their self times plus the
    unattributed share add up to the traced run's wall time."""
    result = smoke(workload)
    layers = {name: entry["value"] for name, entry in result["per_layer"].items()}
    wall = result["traced_wall_s"]
    zoned = sum(
        value for name, value in layers.items()
        if name.endswith(".self_s") or name in ("verify.collect_s", "verify.check_s")
    )  # fmt: skip
    assert layers["trace.unattributed_share"] <= perf.MAX_UNATTRIBUTED
    assert zoned + layers["trace.unattributed_share"] * wall == pytest.approx(wall, rel=1e-3)
    assert layers["trace.overhead_ratio"] > 0


def test_bypassed_layers_read_zero():
    dc_churn = smoke("dc-churn")["per_layer"]
    assert dc_churn["sim.topology.size_calls"]["value"] == 0
    assert dc_churn["sim.topology.self_s"]["value"] == 0
    assert dc_churn["db.locks.waits"]["value"] == 0
    chaos = smoke("chaos-grid")["per_layer"]
    assert chaos["sim.topology.size_calls"]["value"] == 0
    assert chaos["verify.events_checked"]["value"] > 0 and chaos["chaos.crashes"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_one_json_result(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dc-churn", "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", str(perf.SMOKE_SCALE)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 30
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_fails_without_the_source_tree(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dc-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _summary(*values):
    return perf.summarise(list(values))


def test_compare_verdicts():
    a = _summary(10.0, 10.1, 10.2)
    assert perf.verdict(a, _summary(10.05, 10.1, 10.15), "lower", 0.10) == "same"
    assert perf.verdict(a, _summary(11.5, 11.6, 11.7), "lower", 0.10) == "worse"
    assert perf.verdict(a, _summary(8.0, 8.1, 8.2), "lower", 0.10) == "better"
    assert perf.verdict(a, _summary(8.0, 8.1, 8.2), "higher", 0.10) == "worse"
    # spread wider than the bound: neither "same" nor "better" may be claimed
    assert perf.verdict(_summary(8.0, 10.0, 12.0), _summary(8.5, 10.0, 11.5), "lower", 0.10) == (
        "unresolved"
    )


def test_known_failures_replay():
    from repro.chaos.fuzz import FuzzCase, run_case
    from repro.chaos.plan import FaultPlan

    known = json.loads(perf.KNOWN_FAILURES_PATH.read_text(encoding="utf-8"))
    assert known["cases"], "baseline evidence for ROADMAP item 5"
    plan = FaultPlan.from_dict(known["plan"])
    for record in known["cases"][:2]:
        result = run_case(
            FuzzCase(
                seed=record["seed"],
                plan=plan,
                approach=record["approach"],
                consistency=record["consistency"],
                n_transactions=known["n_transactions"],
            )
        )
        assert list(result.violation_codes) == record["violation_codes"]
        assert result.trace_digest == record["trace_digest"]
