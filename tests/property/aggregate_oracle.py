"""The list-based outcome aggregate (the oracle, not a path).

This is :func:`repro.metrics.stats.aggregate` as it stood before its counts
and tally became a fold through
:class:`~repro.metrics.stats.StreamingOutcomeAggregator`: every column is a
separate formula over the retained list.  It is kept
verbatim because it states each column plainly, and
``test_aggregate_properties.py`` requires the fold to reproduce every
column bit for bit on every Python version.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.metrics.stats import OutcomeAggregate, TransactionOutcome, percentile


def reference_aggregate(outcomes: Iterable[TransactionOutcome]) -> OutcomeAggregate:
    """Summarize a batch of transaction outcomes."""
    outcomes = list(outcomes)
    commits = [outcome for outcome in outcomes if outcome.committed]
    aborts = [outcome for outcome in outcomes if not outcome.committed]
    reasons: Dict[str, int] = {}
    for outcome in aborts:
        key = outcome.abort_reason.value if outcome.abort_reason else "unknown"
        reasons[key] = reasons.get(key, 0) + 1
    latencies = [outcome.latency for outcome in outcomes]
    return OutcomeAggregate(
        count=len(outcomes),
        commits=len(commits),
        aborts=len(aborts),
        abort_reasons=reasons,
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        p95_latency=percentile(latencies, 0.95),
        mean_commit_latency=(
            sum(outcome.latency for outcome in commits) / len(commits) if commits else 0.0
        ),
        mean_messages=(
            sum(outcome.protocol_messages for outcome in outcomes) / len(outcomes)
            if outcomes
            else 0.0
        ),
        mean_proofs=(
            sum(outcome.proof_evaluations for outcome in outcomes) / len(outcomes)
            if outcomes
            else 0.0
        ),
        total_wasted_time=sum(outcome.wasted_time for outcome in outcomes),
        mean_queries_before_abort=(
            sum(outcome.queries_executed for outcome in aborts) / len(aborts) if aborts else 0.0
        ),
    )
