"""Per-transaction outcome records and aggregate statistics.

The trade-off benches (Section VI-B) compare approaches on commit latency,
abort rates, *where* in the lifecycle aborts are detected (early detection
saves "expensive undo operations"), and protocol cost.  Each finished
transaction yields a :class:`TransactionOutcome`; :class:`OutcomeAggregate`
summarizes a batch.

One implementation builds the aggregate,
:class:`StreamingOutcomeAggregator`: online, one outcome at a time in O(1)
memory.  Every column is exact except ``p95_latency``, which is read off a
histogram of unit-width bins and lands within one time unit of the exact
nearest-rank value.  :func:`aggregate` is the same fold over a retained
list, with the exact nearest-rank p95 in place of the histogram's and its
float sums taken by built-in :func:`sum` (compensated from Python 3.12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

from repro.errors import AbortReason


@dataclass(frozen=True, slots=True)
class TransactionOutcome:
    """Everything the benches need to know about one finished transaction."""

    txn_id: str
    approach: str
    consistency: str
    committed: bool
    abort_reason: Optional[AbortReason]
    #: α(T): submission time.
    started_at: float
    #: Time the last query finished executing (ω(T), "ready to commit").
    execution_done_at: float
    #: Time the global decision took effect.
    finished_at: float
    queries_total: int
    queries_executed: int
    participants: int
    #: Collection/voting rounds across the whole lifetime (Continuous adds
    #: its per-query 2PV rounds here).
    voting_rounds: int
    protocol_messages: int
    proof_evaluations: int
    #: Rounds of the commit-time protocol alone (Table I's ``r``).
    commit_rounds: int = 0

    @property
    def latency(self) -> float:
        """End-to-end latency (submission → decision)."""
        return self.finished_at - self.started_at

    @property
    def execution_time(self) -> float:
        return self.execution_done_at - self.started_at

    @property
    def commit_phase_time(self) -> float:
        """Time spent in the commit-time protocol (2PC/2PVC [+2PV])."""
        return self.finished_at - self.execution_done_at

    @property
    def wasted_time(self) -> float:
        """Simulated time burnt on a transaction that ultimately aborted."""
        return self.latency if not self.committed else 0.0


@dataclass
class OutcomeAggregate:
    """Summary statistics over a batch of outcomes."""

    count: int
    commits: int
    aborts: int
    abort_reasons: Dict[str, int]
    mean_latency: float
    p95_latency: float
    mean_commit_latency: float
    mean_messages: float
    mean_proofs: float
    total_wasted_time: float
    mean_queries_before_abort: float

    @property
    def commit_rate(self) -> float:
        return self.commits / self.count if self.count else 0.0

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.count if self.count else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class StreamingOutcomeAggregator:
    """Online :func:`aggregate`: feed outcomes one at a time, keep O(1) state.

    Counts, sums, and abort-reason tallies are exact; the latency
    distribution is kept as a histogram of unit-width bins (bin index →
    count), so :meth:`percentile` returns the upper edge of the bin holding
    the nearest-rank sample — at most one time unit above the exact value.
    ``first_started`` / ``last_finished`` track the run's span so
    throughput can be computed without retaining outcomes.
    """

    __slots__ = (
        "count",
        "commits",
        "aborts",
        "abort_reasons",
        "latency_sum",
        "commit_latency_sum",
        "messages_sum",
        "proofs_sum",
        "wasted_time_total",
        "aborted_queries_sum",
        "first_started",
        "last_finished",
        "_latency_bins",
    )

    def __init__(self) -> None:
        self.count = 0
        self.commits = 0
        self.aborts = 0
        self.abort_reasons: Dict[str, int] = {}
        self.latency_sum = 0.0
        self.commit_latency_sum = 0.0
        self.messages_sum = 0
        self.proofs_sum = 0
        self.wasted_time_total = 0.0
        self.aborted_queries_sum = 0
        self.first_started = math.inf
        self.last_finished = -math.inf
        self._latency_bins: Dict[int, int] = {}

    def add(self, outcome: TransactionOutcome) -> None:
        """Fold one finished transaction in (the outcome is not retained)."""
        latency = outcome.finished_at - outcome.started_at
        self.count += 1
        self.latency_sum += latency
        self.messages_sum += outcome.protocol_messages
        self.proofs_sum += outcome.proof_evaluations
        if outcome.committed:
            self.commits += 1
            self.commit_latency_sum += latency
        else:
            self.aborts += 1
            self.wasted_time_total += latency
            self.aborted_queries_sum += outcome.queries_executed
            key = outcome.abort_reason.value if outcome.abort_reason else "unknown"
            self.abort_reasons[key] = self.abort_reasons.get(key, 0) + 1
        if outcome.started_at < self.first_started:
            self.first_started = outcome.started_at
        if outcome.finished_at > self.last_finished:
            self.last_finished = outcome.finished_at
        bin_index = int(latency)
        bins = self._latency_bins
        bins[bin_index] = bins.get(bin_index, 0) + 1

    def percentile(self, fraction: float) -> float:
        """Approximate nearest-rank percentile from the latency histogram."""
        if not self.count:
            return 0.0
        rank = max(0, min(self.count - 1, math.ceil(fraction * self.count) - 1))
        seen = 0
        for bin_index in sorted(self._latency_bins):
            seen += self._latency_bins[bin_index]
            if seen > rank:
                return float(bin_index + 1)
        return float(max(self._latency_bins) + 1)

    @property
    def span(self) -> float:
        """``last_finished − first_started`` (0.0 before the first outcome)."""
        return self.last_finished - self.first_started if self.count else 0.0

    def aggregate(self) -> OutcomeAggregate:
        """The :class:`OutcomeAggregate` of everything folded in so far."""
        count = self.count
        return OutcomeAggregate(
            count=count,
            commits=self.commits,
            aborts=self.aborts,
            abort_reasons=dict(self.abort_reasons),
            mean_latency=self.latency_sum / count if count else 0.0,
            p95_latency=self.percentile(0.95),
            mean_commit_latency=(
                self.commit_latency_sum / self.commits if self.commits else 0.0
            ),
            mean_messages=self.messages_sum / count if count else 0.0,
            mean_proofs=self.proofs_sum / count if count else 0.0,
            total_wasted_time=self.wasted_time_total,
            mean_queries_before_abort=(
                self.aborted_queries_sum / self.aborts if self.aborts else 0.0
            ),
        )


def aggregate(outcomes: Iterable[TransactionOutcome]) -> OutcomeAggregate:
    """Summarize a batch of transaction outcomes: the
    :class:`StreamingOutcomeAggregator` fold, with the exact nearest-rank p95
    and float sums by built-in ``sum`` (from Python 3.12 it compensates its
    rounding, so the fold's left-to-right ``+=`` can differ in the last bits)."""
    outcomes = list(outcomes)
    stream = StreamingOutcomeAggregator()
    for outcome in outcomes:
        stream.add(outcome)
    latencies = [outcome.latency for outcome in outcomes]
    won = [outcome.latency for outcome in outcomes if outcome.committed]
    return replace(
        stream.aggregate(),
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        p95_latency=percentile(latencies, 0.95),
        mean_commit_latency=sum(won) / len(won) if won else 0.0,
        total_wasted_time=sum((outcome.wasted_time for outcome in outcomes), 0.0),
    )
