"""Parameter sweeps for the trade-off evaluation (Section VI-B).

Each sweep point builds a fresh cluster (fresh seed-derived streams),
runs a batch of transactions under one approach while a policy-update
process churns versions, and aggregates the outcomes.  Sweeps power the
TR1/TR2/TR3 benches in ``benchmarks/``.

Determinism contract: a :class:`SweepPoint` fully determines its
:class:`SweepResult`.  All randomness flows through named streams derived
from ``point.seed``, points share no state (every :func:`run_point` call
assembles its own cluster), and the proof cache is transparent to
simulated time — so re-running a point, running it cached vs. uncached,
or running it in a worker process all yield field-for-field equal
outcomes.  That contract is what lets :func:`repro.analysis.parallel.
run_sweep` fan grids out over processes without changing any result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence

from repro.cloud.config import CloudConfig
from repro.core.approaches import PAPER_APPROACHES, get_approach
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import OutcomeAggregate, TransactionOutcome, aggregate
from repro.sim.events import Event
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import PolicyUpdateProcess


@dataclass
class SweepPoint:
    """Configuration of one simulated condition.

    ``seed`` is the *only* source of randomness for the whole point.
    """

    approach: str
    consistency: ConsistencyLevel = ConsistencyLevel.VIEW
    n_servers: int = 3
    txn_length: int = 4
    n_transactions: int = 30
    #: Mean time between policy publications; None disables updates.
    update_interval: Optional[float] = None
    #: Update mode: "benign" (version churn only) or "alternate" (updates
    #: flip authorization outcomes), see :class:`PolicyUpdateProcess`.
    update_mode: str = "benign"
    #: Resubmit transactions aborted for policy reasons (inconsistency or
    #: proof denial) — what a real client does when Incremental aborts on
    #: harmless version churn.
    retry_policy_aborts: bool = False
    max_retries: int = 3
    #: Delay before a retry attempt.
    retry_backoff: float = 0.0
    read_fraction: float = 0.7
    seed: int = 0
    config_overrides: Dict[str, object] = field(default_factory=dict)

    def label(self) -> str:
        return (
            f"{self.approach}/{self.consistency.value}"
            f" u={self.txn_length} upd={self.update_interval}"
        )


@dataclass
class SweepResult:
    """Outcomes plus their aggregate for one sweep point."""

    point: SweepPoint
    outcomes: List[TransactionOutcome]
    summary: OutcomeAggregate


def run_point(point: SweepPoint) -> SweepResult:
    """Simulate one sweep point and aggregate its outcomes.

    Transactions run back to back (closed loop) through a single TM; the
    policy-update process runs concurrently, so updates land *during*
    transaction execution whenever the update interval is comparable to or
    shorter than the transaction length — the regime Section VI-B analyses.

    Deterministic in ``point`` alone: the cluster, workload, and update
    process are all seeded from ``point.seed``, and nothing outside the
    point is read.  Safe to call from worker processes (the function and
    its argument/result types are picklable).  An override key that is not
    a :class:`CloudConfig` field raises ``TypeError``.
    """
    config = replace(CloudConfig(), **point.config_overrides)
    cluster = build_cluster(
        n_servers=point.n_servers,
        items_per_server=max(2, point.txn_length),
        seed=point.seed,
        config=config,
        trace=False,
    )
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(
        txn_length=point.txn_length,
        read_fraction=point.read_fraction,
        count=point.n_transactions,
        user="alice",
    )
    transactions = uniform_transactions(
        spec,
        cluster.catalog,
        cluster.rng.stream("workload"),
        [credential],
        id_prefix=f"{point.approach[:3]}",
    )

    updates: Optional[PolicyUpdateProcess] = None
    if point.update_interval is not None:
        updates = PolicyUpdateProcess(
            cluster,
            "app",
            interval=point.update_interval,
            rng=cluster.rng.stream("updates"),
            jitter=point.update_interval * 0.1,
            restrict_to_role="senior" if point.update_mode == "alternate" else None,
            mode=point.update_mode,
        )
        updates.start()

    approach = get_approach(point.approach)

    from repro.errors import AbortReason
    from repro.transactions.transaction import Transaction

    outcomes: List[TransactionOutcome] = []

    def driver() -> Generator[Event, object, None]:
        for txn in transactions:
            attempt = 0
            current = txn
            while True:
                process = cluster.tm.submit(current, approach, point.consistency)
                outcome = yield process
                outcomes.append(outcome)
                retryable = (
                    point.retry_policy_aborts
                    and not outcome.committed
                    and outcome.abort_reason
                    in (AbortReason.POLICY_INCONSISTENCY, AbortReason.PROOF_FAILED)
                    and attempt < point.max_retries
                )
                if not retryable:
                    break
                if point.retry_backoff:
                    yield cluster.env.timeout(point.retry_backoff)
                attempt += 1
                current = Transaction(
                    f"{txn.txn_id}~retry{attempt}",
                    txn.user,
                    txn.queries,
                    txn.credentials,
                )

    done = cluster.env.process(driver(), name="sweep-driver")
    cluster.env.run(until=done)
    # Only the outcomes leave: let the world die by reference count (the
    # update process and its timers are still queued at this point).
    cluster.close()
    return SweepResult(point, outcomes, aggregate(outcomes))


def sweep(points: Sequence[SweepPoint]) -> List[SweepResult]:
    """Run a list of sweep points sequentially, results in grid order.

    The strictly serial reference path.  For multi-core execution with the
    same results (and a serial fallback on worker death) use
    :func:`repro.analysis.parallel.run_sweep`.
    """
    return [run_point(point) for point in points]


def compare_approaches(
    base: SweepPoint,
    approaches: Sequence[str] = PAPER_APPROACHES,
    parallel: bool = False,
) -> Dict[str, SweepResult]:
    """Run the same condition under each approach (same seed and workload).

    With ``parallel=True`` the per-approach points fan out over worker
    processes via :func:`repro.analysis.parallel.run_sweep`; results are
    identical either way (each point is deterministic in its seed).
    """
    points = [SweepPoint(**{**base.__dict__, "approach": name}) for name in approaches]
    if parallel:
        from repro.analysis.parallel import run_sweep

        results = run_sweep(points)
    else:
        results = [run_point(point) for point in points]
    return dict(zip(approaches, results))
