"""The four benchmark workloads: inputs, timed call, simulated statistics.

Every workload is a class with three steps the child process times
separately: ``prepare()`` (set-up: cluster, credentials, inputs — all drawn
from the seed and fully materialised), ``run()`` (the timed phase: one public
run call and nothing else) and ``collect()`` (after the clock stopped:
simulated statistics, public counters, output checks).  Sizes at
``scale=1.0`` are the ones ``BENCHMARK.json`` and the README state; the smoke
run and the tests use a twentieth of them with the tracer on and
``Cluster.verify()`` as an extra check.

Why each workload exists is recorded in ``BENCHMARK.json`` and the README;
the short version is in each class docstring.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import random
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.scale import StaleCommitTracker
from repro.analysis.sweep import SweepPoint, run_point
from repro.chaos import fuzz as fuzz_module
from repro.chaos.classify import UNCLASSIFIED
from repro.chaos.fuzz import CONSISTENCY_LEVELS, PAPER_APPROACHES, FuzzCase
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import TransactionOutcome, percentile
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    PolicyStormProcess,
    ScaleWorkloadSpec,
    generate_scale_workload,
    mint_user_credentials,
    storm_schedule,
)
from repro.workloads.testbed import build_multiregion_cluster

#: Initial value of every item (the testbed default), for the storage check.
INITIAL_VALUE = 100.0
STORMS_PER_REGION = 6
KNOWN_FAILURES_PATH = pathlib.Path(__file__).resolve().parent / "known_failures.json"
# ``repro.analysis`` exports a function named ``sweep`` that hides the module.
sweep_module = importlib.import_module("repro.analysis.sweep")


class SimStats:
    """Simulated statistics of one run, from its outcomes and counters.

    All of it is a function of the seed alone: the digest covers the ordered
    outcome tuples and the final counters, so a host-only change can show
    that it moved no simulated statistic, and the traced run can show that
    the zone wrappers moved none either.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.decided = 0
        self.commits = 0
        self.span = 0.0
        self.commit_latency: List[float] = []
        self.commit_phase: List[float] = []
        self.abort_reasons: Counter = Counter()
        self.voting_rounds = 0
        self.commit_rounds = 0
        #: Additive public counters, keyed by per-layer metric name; the
        #: ones only some workloads feed read 0 on the others.
        self.counters: Counter = Counter(
            {"analysis.stale_commits": 0, "chaos.faults_armed": 0, "verify.violating_cases": 0}
        )
        self._digest = hashlib.sha256()

    def add_outcomes(self, outcomes: Iterable[TransactionOutcome]) -> None:
        """Fold one cluster's outcomes in (its run span adds to ``span``)."""
        first, last = float("inf"), float("-inf")
        for o in outcomes:
            self.decided += 1
            self.voting_rounds += o.voting_rounds
            self.commit_rounds += o.commit_rounds
            if o.committed:
                self.commits += 1
                self.commit_latency.append(o.latency)
                self.commit_phase.append(o.commit_phase_time)
            else:
                reason = o.abort_reason.value if o.abort_reason else "unknown"
                self.abort_reasons[reason] += 1
            first = min(first, o.started_at)
            last = max(last, o.finished_at)
            self.digest(
                o.txn_id, o.committed, o.abort_reason, o.started_at, o.execution_done_at,
                o.finished_at, o.queries_executed, o.voting_rounds, o.protocol_messages,
                o.proof_evaluations, o.commit_rounds,
            )
        if last > first:
            self.span += last - first

    def add_cluster(self, cluster: Any) -> None:
        """Fold one cluster's public counters in."""
        m = cluster.metrics
        nodes = list(cluster.servers.values()) + list(cluster.tms)
        cache, engine, faults = m.proof_cache, m.engine, m.faults
        counts = {
            "sim.network.sends": m.messages.total(),
            "sim.network.protocol_msgs": m.messages.protocol_total(),
            "sim.network.cross_region_msgs": m.regions.cross_region,
            "sim.network.cross_region_bytes": m.regions.cross_region_bytes(),
            "sim.network.drops": faults.messages_dropped,
            "db.wal.forced": sum(node.wal.forced_writes for node in nodes),
            "db.wal.appends": sum(node.wal.unforced_writes for node in nodes),
            "policy.rules.proofs": engine.proofs,
            "policy.rules.facts_scanned": engine.facts_scanned,
            "policy.rules.rules_tried": engine.rules_tried,
            "policy.proofs.evaluations": m.proofs.total,
            "policy.proofcache.lookups": cache.lookups,
            "policy.proofcache.hits": cache.hits,
            "policy.proofcache.invalidations": cache.invalidations,
            "policy.proofcache.retentions": cache.retentions,
            "cloud.master.fetches": m.messages.by_category[msg.CAT_MASTER],
            "cloud.replication.installs": m.messages.by_category[msg.CAT_REPLICATION],
            "transactions.manager.timeouts": faults.timeouts,
            "transactions.manager.retries": faults.retries,
            "chaos.crashes": faults.crashes,
            "chaos.recoveries": faults.recoveries,
            "chaos.in_doubt_resolved": faults.in_doubt_resolved,
            "chaos.in_doubt_unresolved": faults.in_doubt_unresolved,
            "sim.tracing.records": len(cluster.tracer),
            "obs.spans.spans": len(cluster.obs),
            "verify.events_checked": m.verification.events_checked,
            "verify.violations": m.verification.violations,
        }
        self.counters.update(counts)
        self.digest(sorted(m.messages.by_category.items()), sorted(counts.items()))

    def digest(self, *values: Any) -> None:
        self._digest.update(repr(values).encode())

    def end_to_end(self) -> Dict[str, float]:
        """The ``sim_*`` end-to-end metrics (simulated units, exact)."""
        commits = max(self.commits, 1)
        return {
            "sim_commit_p95": percentile(self.commit_latency, 0.95),
            "sim_commit_phase_p95": percentile(self.commit_phase, 0.95),
            "sim_msgs_per_commit": self.counters["sim.network.protocol_msgs"] / commits,
            "sim_proofs_per_commit": self.counters["policy.proofs.evaluations"] / commits,
        }

    def goodput(self) -> float:
        """Commits per 1 000 simulated units of run span."""
        return 1000.0 * self.commits / self.span if self.span else 0.0

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class Workload:
    """One benchmark workload.  ``observers`` feeds the zone profiler the
    counts only a wrapped call's arguments or result can give."""

    name = ""
    #: What one operation is, for ``attempted`` / ``failed``.
    operation = "transaction"

    def __init__(self, seed: int, scale: float = 1.0, verify: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        #: Smoke mode: tracer on, ``Cluster.verify()`` must come back clean.
        self.verify = verify
        self.stats = SimStats()
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.lock_waits: List[float] = []
        #: ``chaos-grid``: violating cases as known_failures.json records them.
        self.violating: List[Dict[str, Any]] = []

    def sized(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def collect(self) -> None:
        raise NotImplementedError

    def observers(self) -> Dict[Tuple[str, str], Callable[..., None]]:
        """Zone observers: queued lock requests and their simulated waits."""
        waits = self.lock_waits

        def on_acquire(event: Any, locks: Any, *_args: Any) -> None:
            if not event.triggered:
                asked = locks.env.now
                event.add_callback(lambda _event: waits.append(locks.env.now - asked))

        return {("LockManager", "acquire"): on_acquire}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {problem}")

    def verify_cluster(self, cluster: Any) -> None:
        report = cluster.verify()
        self.check(not report.violations, f"conformance violations {report.codes()}")


def _capture_clusters(module: Any, trace: Optional[bool]) -> List[Any]:
    """Keep every cluster ``module.build_cluster`` makes from now on.

    ``run_point`` and ``run_case`` build their cluster inside the call and
    return only outcomes or a verdict; the counters the benchmark reports
    live on the cluster.  ``trace`` (smoke mode) overrides the tracer switch.
    """
    build = module.build_cluster
    kept: List[Any] = []

    def build_cluster(*args: Any, **kwargs: Any) -> Any:
        if trace is not None:
            kwargs["trace"] = trace
        cluster = build(*args, **kwargs)
        kept.append(cluster)
        return cluster

    module.build_cluster = build_cluster
    return kept


class WanWorkload(Workload):
    """Open-loop Table-I-at-scale cell: 3 regions x 2 shards, deferred/view.

    Poisson user arrivals at ``arrival_rate`` users per simulated time unit,
    4 000 distinct users with one transaction each (so the proof cache never
    hits), six benign policy storms per region.  ``wan-steady`` offers 0.15
    (below the knee, which sits between 0.2 and 0.3).  ``wan-overload``
    offers 0.8: lock queues, deadlock search, RPC timeouts and the abort
    path carry the run.  At 0.4 — about twice the knee, where
    ``BENCH_SCALE.json`` was measured — the collapse is metastable: the seed
    decides whether a run collapses at all (2 % to 35 % aborts), so no
    regression bound could hold across seeds; at 0.8 every seed collapses.
    """

    arrival_rate = 0.0
    n_users = 4000

    def prepare(self) -> None:
        seed = self.seed
        config = CloudConfig(
            request_timeout=3000.0,
            obs_spans=False,
            streaming_metrics=True,
            live_telemetry=True,
            flight_recorder=True,
        )
        self.cluster = cluster = build_multiregion_cluster(
            shards_per_region=2,
            items_per_shard=64,
            replication_factor=2,
            seed=seed,
            config=config,
            trace=self.verify,
        )
        spec = ScaleWorkloadSpec(
            n_users=self.sized(self.n_users),
            arrival_rate=self.arrival_rate,
            txn_length=2,
            read_fraction=0.85,
            zipf_skew=0.8,
            locality=0.9,
        )
        credentials = mint_user_credentials(cluster, spec.n_users)
        self.schedule = generate_scale_workload(
            spec, cluster.shards, random.Random(seed + 1), credentials
        )
        horizon = spec.n_users * spec.txns_per_user / spec.arrival_rate
        storms = storm_schedule(
            list(cluster.shards.regions),
            random.Random(seed + 2),
            horizon=horizon,
            mean_interval=horizon / STORMS_PER_REGION,
            updates_per_storm=3,
            spacing=2.0,
            mode="benign",
        )
        PolicyStormProcess(cluster, storms).start()
        self.runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
        self.tracker = StaleCommitTracker(cluster)
        self.outcomes: List[TransactionOutcome] = []

        def on_outcome(outcome: TransactionOutcome) -> None:
            self.outcomes.append(outcome)
            self.tracker.observe(outcome)  # pops the coordinator's finished context

        self.runner.on_outcome = on_outcome

    def run(self) -> None:
        self.runner.run_scheduled(self.schedule)

    def collect(self) -> None:
        stats, cluster = self.stats, self.cluster
        stats.submitted = len(self.schedule)
        stats.add_outcomes(self.outcomes)
        if self.verify:
            self.verify_cluster(cluster)
        stats.add_cluster(cluster)
        stats.counters["analysis.stale_commits"] = self.tracker.stale_commits
        self.attempted = stats.submitted
        self.failed = stats.submitted - stats.decided
        self.check(self.failed == 0, f"{self.failed} transactions undecided at drain")
        self._check_storage()

    def _check_storage(self) -> None:
        """Atomicity: every item holds exactly the committed deltas."""
        committed = {o.txn_id for o in self.outcomes if o.committed}
        expected: Dict[str, float] = {}
        for entry in self.schedule:
            if entry.txn.txn_id in committed:
                for query in entry.txn.queries:
                    for effect in query.effects:
                        expected[effect.key] = expected.get(effect.key, 0.0) + effect.amount
        catalog = self.cluster.catalog
        wrong = 0
        for server in catalog.servers():
            storage = self.cluster.server(server).storage
            for item in catalog.items_on(server):
                want = INITIAL_VALUE + expected.get(item, 0.0)
                wrong += abs(storage.committed_value(item) - want) > 1e-6
        self.check(wrong == 0, f"{wrong} items differ from the committed deltas")


class WanSteady(WanWorkload):
    name = "wan-steady"
    arrival_rate = 0.15


class WanOverload(WanWorkload):
    name = "wan-overload"
    arrival_rate = 0.8


class DcChurn(Workload):
    """Closed loop, one client, one datacenter, continuous/global under churn.

    The paper's Section VI-B regime: a policy update every 25 units against
    six-query transactions, so ~39 proofs plus master fetches per transaction
    and ~850 policy versions; no topology (wire sizes are never estimated)
    and no lock waits (one client).
    """

    name = "dc-churn"

    def prepare(self) -> None:
        self.point = SweepPoint(
            approach="continuous",
            consistency=ConsistencyLevel.GLOBAL,
            n_servers=6,
            txn_length=6,
            n_transactions=self.sized(300),
            update_interval=25.0,
            update_mode="benign",
            read_fraction=0.7,
            seed=self.seed,
            config_overrides={"obs_spans": False},
        )
        self.clusters = _capture_clusters(sweep_module, True if self.verify else None)

    def run(self) -> None:
        self.result = run_point(self.point)

    def collect(self) -> None:
        stats = self.stats
        (cluster,) = self.clusters
        outcomes = self.result.outcomes
        stats.submitted = self.point.n_transactions
        stats.add_outcomes(outcomes)
        if self.verify:
            self.verify_cluster(cluster)
        stats.add_cluster(cluster)
        self.attempted = stats.submitted
        self.failed = stats.submitted - stats.decided
        self.check(self.failed == 0, f"{self.failed} transactions undecided")
        partial = sum(o.committed and o.queries_executed != o.queries_total for o in outcomes)
        self.check(partial == 0, f"{partial} commits with unexecuted queries")


class ChaosGrid(Workload):
    """Fault grid: 15 seeds x 4 approaches x 2 consistency levels, all checked.

    Every case runs with tracer and spans on under the same plan (1 % drops
    for the whole horizon, a timed crash of ``s2``, a crash of ``s1`` the
    moment it sends a 2PVC vote), ends with the recovery pass, and goes
    through ``collect_run`` + ``check_run`` + the anomaly classifier.  An
    operation is a case; a case *fails* when it ends without a classified
    verdict.  Cases whose verdict is a conformance violation are counted as
    ``verify.violating_cases``; the ones at the default seed are listed in
    ``known_failures.json``, and a violating case in that seed range that the
    file does not list is a failed check.
    """

    name = "chaos-grid"
    operation = "case"
    n_seeds = 15
    n_transactions = 24

    def prepare(self) -> None:
        horizon = self.n_transactions * FuzzCase.arrival_gap
        down = round(0.1 * horizon, 1)
        self.plan = FaultPlan(
            (
                FaultSpec("drop_rate", at=0.0, duration=horizon, rate=0.01),
                FaultSpec("crash", at=round(0.2 * horizon, 1), node="s2", down_for=down),
                FaultSpec(
                    "crash",
                    at=round(0.6 * horizon, 1),
                    node="s1",
                    on_kind=msg.VOTE_REPLY,
                    down_for=down,
                ),
            ),
            label="perf-chaos-grid",
        )
        self.cases = [
            FuzzCase(
                seed=seed,
                plan=self.plan,
                approach=approach,
                consistency=consistency,
                n_transactions=self.n_transactions,
            )
            for seed in range(self.seed, self.seed + self.sized(self.n_seeds))
            for approach in PAPER_APPROACHES
            for consistency in CONSISTENCY_LEVELS
        ]
        self.clusters = _capture_clusters(fuzz_module, None)
        self.results: List[Any] = []
        self.events_checked = 0

    def observers(self) -> Dict[Tuple[str, str], Callable[..., None]]:
        def on_check(report: Any, *_args: Any) -> None:
            self.events_checked += report.events_checked

        return {**super().observers(), ("conformance", "check_run"): on_check}

    def run(self) -> None:
        stats, clusters = self.stats, self.clusters
        for case in self.cases:
            # Looked up per call: the traced child wraps it as a zone.
            self.results.append(fuzz_module.run_case(case))
            # One cluster per case: fold it in and let it go, so peak memory
            # is one case's, not the grid's.
            cluster = clusters.pop()
            stats.add_outcomes(o for tm in cluster.tms for o in tm.outcomes)
            stats.add_cluster(cluster)

    def collect(self) -> None:
        stats = self.stats
        stats.submitted = self.n_transactions * len(self.cases)
        stats.counters["verify.events_checked"] = self.events_checked
        stats.counters["chaos.faults_armed"] = len(self.plan) * len(self.cases)
        self.attempted = len(self.cases)
        for result in self.results:
            case = result.case
            stats.digest(case.seed, case.approach, case.consistency, result.trace_digest,
                         result.violation_codes)
            stats.counters["verify.violations"] += len(result.anomalies)
            if any(anomaly.name == UNCLASSIFIED for anomaly in result.anomalies):
                self.failed += 1
            if not result.ok:
                self.violating.append(
                    {
                        "seed": case.seed,
                        "approach": case.approach,
                        "consistency": case.consistency,
                        "violation_codes": list(result.violation_codes),
                        "trace_digest": result.trace_digest,
                    }
                )
        stats.counters["verify.violating_cases"] = len(self.violating)
        known = json.loads(KNOWN_FAILURES_PATH.read_text(encoding="utf-8"))
        covered = range(known["seed"], known["seed"] + self.n_seeds)
        new = [v for v in self.violating if v["seed"] in covered and v not in known["cases"]]
        self.check(not new, f"violating cases not in known_failures.json: {new}")
        self.check(self.failed == 0, f"{self.failed} cases with an unclassified anomaly")
        self.check(len(self.results) == len(self.cases), "not every case returned a verdict")


WORKLOADS: Mapping[str, type] = {
    cls.name: cls for cls in (WanSteady, WanOverload, DcChurn, ChaosGrid)
}
