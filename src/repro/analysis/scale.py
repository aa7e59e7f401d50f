"""Scale-run accounting: stale commits and master-locality latency splits.

The planet-scale bench (``benchmarks/bench_scale.py``) replays tens of
thousands of transactions against a sharded multi-region cluster.  Two
measurements are specific to that regime and live here:

* :class:`StaleCommitTracker` — an **online** detector of *stale commits*:
  transactions that committed although some participant evaluated its
  proofs against a policy version older than the master's latest at the
  moment the decision landed.  Under view consistency the weaker
  approaches permit these (that is the paper's Section IV trade-off); the
  tracker quantifies how often.  It hooks
  :attr:`repro.workloads.runner.OpenLoopRunner.on_outcome`, inspects the
  finished :class:`~repro.core.context.TxnContext`, and **discards** it —
  memory stays O(1) per transaction no matter how large the run.

* :class:`StreamingLocalitySplit` — partitions outcomes, online, by whether
  the coordinating TM shares a region with the policy master.  The scale
  bench's headline number is the commit-latency gap between the two
  halves per approach: every master-version fetch from a remote-region
  coordinator pays a WAN round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.cloud.master import MASTER_NAME
from repro.errors import PolicyError
from repro.metrics.stats import OutcomeAggregate, StreamingOutcomeAggregator, TransactionOutcome
from repro.workloads.testbed import Cluster


class StaleCommitTracker:
    """Streams finished transactions and counts stale commits.

    A commit is *stale* when, at decision time, any participating server's
    reported policy version for some governing domain is behind the
    version the master service holds *right now* — i.e. the proofs that
    admitted the transaction were evaluated under superseded policy.
    (Global consistency is designed to make this impossible; view
    consistency and the laxer approaches trade it for latency.)

    Wire it as ``OpenLoopRunner(..., on_outcome=tracker.observe)`` — the
    hook fires in simulation time as each transaction completes, so the
    master comparison uses the master's state *at* the commit, not at the
    end of the run.  The tracker asks every coordinator to keep finished
    contexts, and pops each one from its ``finished`` map after inspection
    to keep long runs bounded.
    """

    def __init__(self, cluster: Cluster, max_examples: int = 1024) -> None:
        self.cluster = cluster
        for tm in cluster.tms:
            tm.keeps_finished = True
        self.commits = 0
        self.stale_commits = 0
        #: txn_id → list of domains whose version was behind — capped at
        #: ``max_examples`` entries so unbounded runs stay O(1); the
        #: ``stale_commits`` / ``stale_by_domain`` counters are never capped.
        self.stale_domains: Dict[str, List[str]] = {}
        self.max_examples = max_examples
        #: domain → number of stale commits it contributed to (uncapped).
        self.stale_by_domain: Dict[str, int] = {}

    def observe(self, outcome: TransactionOutcome) -> None:
        ctx = self._pop_context(outcome.txn_id)
        if not outcome.committed:
            return
        self.commits += 1
        if ctx is None:
            return
        behind: List[str] = []
        for policy_id, by_server in ctx.versions_seen.items():
            try:
                latest = self.cluster.master.latest_version(policy_id)
            except PolicyError:
                continue
            if by_server and min(by_server.values()) < latest:
                behind.append(policy_id.admin)
        if behind:
            self.stale_commits += 1
            for domain in behind:
                self.stale_by_domain[domain] = self.stale_by_domain.get(domain, 0) + 1
            if len(self.stale_domains) < self.max_examples:
                self.stale_domains[outcome.txn_id] = behind
            self.cluster.metrics.stale_commit(outcome.finished_at)

    def _pop_context(self, txn_id: str):
        for tm in self.cluster.tms:
            ctx = tm.finished.pop(txn_id, None)
            if ctx is not None:
                return ctx
        return None

    @property
    def stale_rate(self) -> float:
        """Stale commits as a fraction of all commits."""
        return self.stale_commits / self.commits if self.commits else 0.0


@dataclass
class LocalitySplit:
    """Outcomes partitioned by coordinator ↔ policy-master co-location."""

    #: Region the master version service is pinned to.
    master_region: Optional[str]
    #: Coordinator TM in the master's region.
    local: OutcomeAggregate
    #: Coordinator TM in any other region (every master fetch crosses WAN).
    remote: OutcomeAggregate

    @property
    def commit_latency_gap(self) -> float:
        """Mean commit-latency penalty of a cross-region coordinator."""
        return self.remote.mean_commit_latency - self.local.mean_commit_latency


class StreamingLocalitySplit:
    """Splits outcomes by the coordinating TM's region vs the master's.

    Wire :meth:`observe` into :attr:`OpenLoopRunner.on_outcome` — hooks run
    before the runner evicts the transaction's assignment, so the live
    ``assignments`` mapping (:attr:`OpenLoopRunner.assignments`, txn → TM
    name) is consulted at completion time; a transaction with no assignment,
    and every TM of a cluster without a topology, counts as master-local.
    Each half is folded into a
    :class:`~repro.metrics.stats.StreamingOutcomeAggregator`, keeping memory
    O(1) in the run length; :meth:`split` materializes the
    :class:`LocalitySplit` (p95 columns within one histogram bin, everything
    else exact).
    """

    def __init__(
        self,
        cluster: Cluster,
        assignments: Mapping[str, str],
    ) -> None:
        self.master_region = cluster.region_of(MASTER_NAME)
        self._region_of = cluster.region_of
        self._assignments = assignments
        #: TM name → region, memoized (the TM set is small and fixed).
        self._tm_regions: Dict[str, Optional[str]] = {}
        self.local = StreamingOutcomeAggregator()
        self.remote = StreamingOutcomeAggregator()

    def observe(self, outcome: TransactionOutcome) -> None:
        tm_name = self._assignments.get(outcome.txn_id)
        if tm_name is None:
            tm_region = None
        else:
            tm_region = self._tm_regions.get(tm_name)
            if tm_region is None and tm_name not in self._tm_regions:
                tm_region = self._region_of(tm_name)
                self._tm_regions[tm_name] = tm_region
        if self.master_region is not None and tm_region not in (None, self.master_region):
            self.remote.add(outcome)
        else:
            self.local.add(outcome)

    def split(self) -> LocalitySplit:
        return LocalitySplit(
            master_region=self.master_region,
            local=self.local.aggregate(),
            remote=self.remote.aggregate(),
        )


@dataclass
class ScaleRunResult:
    """Everything ``bench_scale`` reports for one approach's run."""

    approach: str
    consistency: str
    overall: OutcomeAggregate
    locality: LocalitySplit
    stale_commits: int
    stale_rate: float
    cross_region_messages: int
    intra_region_messages: int
    cross_region_bytes: int
    #: ``None`` when the run skipped conformance checking (tracing off at
    #: very large scale — see bench_scale's ``--verify-max-users``).
    verify_violations: Optional[int]
    storm_publications: int = 0
    #: Transactions the conformance check covered (``None`` when skipped).
    verify_transactions: Optional[int] = None
    #: Bench-specific extras merged into the row verbatim (scalar columns,
    #: or structured values like sketch quantile tables / window series).
    extra: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """A flat, JSON-ready record (the BENCH_SCALE.json row)."""
        return {
            "approach": self.approach,
            "consistency": self.consistency,
            "transactions": self.overall.count,
            "commits": self.overall.commits,
            "aborts": self.overall.aborts,
            "abort_rate": round(self.overall.abort_rate, 4),
            "abort_reasons": dict(self.overall.abort_reasons),
            "stale_commits": self.stale_commits,
            "stale_commit_rate": round(self.stale_rate, 4),
            "mean_commit_latency": round(self.overall.mean_commit_latency, 2),
            "p95_latency": round(self.overall.p95_latency, 2),
            "mean_protocol_messages": round(self.overall.mean_messages, 2),
            "master_region": self.locality.master_region,
            "master_local_commit_latency": round(
                self.locality.local.mean_commit_latency, 2
            ),
            "cross_region_commit_latency": round(
                self.locality.remote.mean_commit_latency, 2
            ),
            "cross_region_latency_gap": round(self.locality.commit_latency_gap, 2),
            "master_local_abort_rate": round(self.locality.local.abort_rate, 4),
            "cross_region_abort_rate": round(self.locality.remote.abort_rate, 4),
            "cross_region_messages": self.cross_region_messages,
            "intra_region_messages": self.intra_region_messages,
            "cross_region_bytes": self.cross_region_bytes,
            "storm_publications": self.storm_publications,
            "verify_violations": self.verify_violations,
            "verify_transactions": self.verify_transactions,
            **self.extra,
        }
