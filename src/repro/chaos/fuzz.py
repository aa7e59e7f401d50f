"""The seeded chaos fuzzer: run fault schedules, verify every trace.

A :class:`FuzzCase` is the complete, serializable recipe for one chaos run:
the cluster seed, the fault plan, the approach and consistency level, and
the workload shape.  :func:`run_case` builds a fresh testbed cluster from
the recipe, arms the nemesis, drives a staggered uniform workload, drains
the simulation (restarting any still-crashed nodes so WAL recovery can
resolve in-doubt transactions), and then runs the full conformance checker
over the recorded trace.  The result carries the violation codes, the
classified anomalies, and a digest of the trace — the replay witness: the
same case always produces the same digest (property-tested).

:func:`sweep` crosses one plan with the approach × consistency grid, which
is how the CLI demonstrates the paper's claim: fault schedules that drive
the weak baseline into classified anomalies leave all four paper
approaches verify-clean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Tuple

from repro.chaos.classify import Anomaly, classify_report
from repro.chaos.contrast import WeakApproach
from repro.chaos.nemesis import Nemesis
from repro.chaos.plan import FaultPlan
from repro.cloud.config import CloudConfig
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.sim.kernel import collector_suspended
from repro.sim.network import FixedLatency
from repro.transactions.states import TxnStatus
from repro.verify import dump_incident
from repro.verify import report as rep
from repro.verify.conformance import check_run
from repro.verify.events import collect_run
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster

@dataclass(frozen=True)
class FuzzCase:
    """One fully reproducible chaos run: ``(seed, plan)`` + grid cell + workload."""

    seed: int
    plan: FaultPlan
    approach: str = "deferred"
    consistency: str = "view"
    # -- workload shape ----------------------------------------------------
    n_transactions: int = 8
    txn_length: int = 3
    read_fraction: float = 0.5
    arrival_gap: float = 6.0
    # -- cluster shape -----------------------------------------------------
    n_servers: int = 3
    items_per_server: int = 4
    # -- hardening knobs ---------------------------------------------------
    request_timeout: float = 15.0
    rpc_max_retries: int = 2

    def to_dict(self) -> Dict[str, Any]:
        record = {
            name: getattr(self, name)
            for name in (
                "seed",
                "approach",
                "consistency",
                "n_transactions",
                "txn_length",
                "read_fraction",
                "arrival_gap",
                "n_servers",
                "items_per_server",
                "request_timeout",
                "rpc_max_retries",
            )
        }
        record["plan"] = self.plan.to_dict()
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        payload = dict(data)
        payload["plan"] = FaultPlan.from_dict(payload["plan"])
        return cls(**payload)


@dataclass
class CaseResult:
    """Verdict of one chaos run."""

    case: FuzzCase
    #: Sorted distinct violation codes from the conformance checker.
    violation_codes: Tuple[str, ...]
    #: Every violation, classified (checker order).
    anomalies: List[Anomaly]
    #: SHA-256 over the recorded trace — the determinism witness.
    trace_digest: str
    committed: int
    aborted: int
    #: Transactions that committed despite FALSE/inconsistent proofs
    #: (Def. 4 breaches) — the contrast-mode headline number.
    unsafe_commits: int
    #: Nodes restarted by the end-of-run recovery pass.
    recovered_nodes: Tuple[str, ...] = ()
    #: Flight-recorder incident bundles captured during the run.
    bundles: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violation_codes

    def anomaly_names(self) -> Tuple[str, ...]:
        return tuple(sorted({anomaly.name for anomaly in self.anomalies}))

    def summary(self) -> str:
        cell = f"{self.case.approach}/{self.case.consistency}"
        if self.ok:
            return (
                f"{cell}: clean ({self.committed} committed, "
                f"{self.aborted} aborted, digest {self.trace_digest[:12]})"
            )
        names = ", ".join(self.anomaly_names())
        return (
            f"{cell}: {len(self.anomalies)} anomaly(ies) [{names}] "
            f"({self.unsafe_commits} unsafe commit(s), digest {self.trace_digest[:12]})"
        )


def _trace_digest(tracer: Any) -> str:
    """Stable digest over every trace record (time, category, details).

    Hashes the line ``f"{time!r}|{category}|{details!r}"`` of each record,
    rendering each distinct fact once: a details tuple (net.send and
    net.recv share one), built from its pairs as ``repr`` builds it; a
    ``str``/``str`` pair; a nonzero float time.  Equal values that render
    apart (``True == 1 == 1.0``, ``0.0 == -0.0``) never share a rendering
    (``tests/chaos/test_trace_digest_identity.py``).
    """
    records = list(tracer)  # alive until the end: an ``id`` below names one tuple
    rendered: Dict[int, str] = {}
    string_pairs: Dict[Tuple[str, str], str] = {}
    stamps: Dict[float, str] = {}
    lines = []
    for time, category, details in records:
        text = rendered.get(id(details))
        if text is None:
            parts = []
            for pair in details:
                key, value = pair
                if value.__class__ is str and key.__class__ is str:
                    part = string_pairs.get(pair)
                    if part is None:
                        part = string_pairs[pair] = repr(pair)
                else:
                    part = repr(pair)
                parts.append(part)
            text = "(" + ", ".join(parts) + (",)" if len(parts) == 1 else ")")
            rendered[id(details)] = text
        if time.__class__ is float and time:
            stamp = stamps.get(time)
            if stamp is None:
                stamp = stamps[time] = repr(time)
        else:
            stamp = repr(time)
        lines.append(f"{stamp}|{category}|{text}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _driver(cluster: Any, case: FuzzCase, approach: Any) -> Generator[Any, Any, None]:
    """Submit the workload with a fixed inter-arrival gap."""
    consistency = ConsistencyLevel[case.consistency.upper()]
    credentials = [cluster.issue_role_credential("alice")]
    spec = WorkloadSpec(
        txn_length=case.txn_length,
        read_fraction=case.read_fraction,
        count=case.n_transactions,
        user="alice",
    )
    transactions = uniform_transactions(
        spec,
        cluster.catalog,
        cluster.rng.stream("chaos-workload"),
        credentials,
        id_prefix=f"c{case.seed}-",
    )
    for txn in transactions:
        cluster.submit(txn, approach, consistency)
        yield cluster.env.timeout(case.arrival_gap)


#: The closed clusters of the cases finished most recently, newest last.
#: Temporary, see :func:`run_case`; goes when ``benchmarks/perf`` attributes
#: the teardown of the clusters it captures.
_finished_worlds: List[Any] = []


def run_case(case: FuzzCase, flight: bool = False) -> CaseResult:
    """Execute one chaos case end to end and verify the recorded trace.

    Only the verdict leaves, so the cluster is closed and dies by reference
    count, in whichever frame drops the last reference.  For a caller that
    holds nothing that would be this one.  ``benchmarks/perf`` captures each
    cluster to read its counters and holds it until the following case has
    returned, so the ~14 000 frees of every finished world would land in
    its loop, outside every zone, and its traced ``chaos-grid`` run fails
    its own "at most 2 % of the wall unattributed" check (11 of 12
    invocations measured; "Where a finished chaos world is torn down" in
    docs/performance.md).  A PR that claims a gain may not edit the
    benchmark, so the fuzzer keeps the newest finished world one call longer
    and lets the older one go here, at the start of the call after next:
    the teardown is paid in this function's zone.  Memory-neutral for such a
    runner; a caller that holds nothing keeps one extra finished world
    (~1.5 MB) alive.

    The whole case runs under :func:`~repro.sim.kernel.collector_suspended`:
    the ~6 collector passes it would start find nothing, and the young pass
    taken on its way out is the one a case pays.
    """
    with collector_suspended():
        del _finished_worlds[:-1]
        config = CloudConfig(
            latency=FixedLatency(1.0),
            request_timeout=case.request_timeout,
            rpc_max_retries=case.rpc_max_retries,
            flight_recorder=flight,
        )
        cluster = build_cluster(
            n_servers=case.n_servers,
            items_per_server=case.items_per_server,
            seed=case.seed,
            config=config,
        )
        approach: Any = case.approach
        if case.approach == WeakApproach.name:
            approach = WeakApproach()
        nemesis = Nemesis(cluster, case.plan).install()
        cluster.env.process(_driver(cluster, case, approach), name="chaos.driver")
        cluster.run()
        # End-of-run recovery pass: restart anything still down, then drain
        # again so WAL recovery (termination protocol) resolves in-doubt
        # transactions before the books are audited.
        recovered = nemesis.recover_all()
        cluster.run()

        run = collect_run(cluster)
        report = check_run(run)
        dump_incident(cluster, report, f"chaos: {', '.join(report.codes())}")

        committed = aborted = 0
        for tm in cluster.tms:
            for ctx in tm.finished.values():
                if ctx.status is TxnStatus.COMMITTED:
                    committed += 1
                elif ctx.status is TxnStatus.ABORTED:
                    aborted += 1
        unsafe = len(
            {
                violation.txn_id
                for violation in report.violations
                if violation.code == rep.CONSISTENCY_UNSAFE_COMMIT
            }
        )
        anomalies = classify_report(report, run)
        digest = _trace_digest(cluster.tracer)
        cluster.close()
        _finished_worlds.append(cluster)
        return CaseResult(
            case=case,
            violation_codes=tuple(report.codes()),
            anomalies=anomalies,
            trace_digest=digest,
            committed=committed,
            aborted=aborted,
            unsafe_commits=unsafe,
            recovered_nodes=tuple(recovered),
            bundles=list(cluster.metrics.flight.bundles) if flight else [],
        )


def sweep(
    base: FuzzCase,
    approaches: Tuple[str, ...] = PAPER_APPROACHES,
    consistencies: Tuple[str, ...] = CONSISTENCY_LEVELS,
    flight: bool = False,
) -> List[CaseResult]:
    """Run one plan across the approach × consistency grid."""
    results = []
    for approach in approaches:
        for consistency in consistencies:
            cell = replace(base, approach=approach, consistency=consistency)
            results.append(run_case(cell, flight=flight))
    return results
