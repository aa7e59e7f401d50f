"""Adaptive approach selection — the paper's §VI-B guidance, automated.

The paper closes with: "Given a better understanding of the execution
times of each approach in both short/long transactions and
frequent/infrequent policy updates, we can provide quantitative measures
to better guide the decision process."  This module operationalizes that:
an :class:`AdaptiveSelector` observes the policy-update stream and each
transaction's expected duration, then applies the §VI-B rule *per
transaction*:

* expected transaction time < expected update interval → Deferred (short)
  or Punctual (long);
* otherwise → Incremental (short) or Continuous (long).

Estimates are exponentially-weighted so the selector tracks regime shifts
(e.g. an administrator starting a reconfiguration burst).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.tradeoff import recommend_regime
from repro.core.approaches import ProofApproach, get_approach
from repro.transactions.transaction import Transaction


@dataclass
class EwmaEstimator:
    """Exponentially weighted moving average over observed gaps/durations."""

    alpha: float = 0.3
    value: Optional[float] = None

    def observe(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * sample + (1 - self.alpha) * self.value
        return self.value


class AdaptiveSelector:
    """Chooses an enforcement approach per transaction.

    Wire :meth:`on_policy_published` to each administrator (or call it from
    the replication layer) and :meth:`on_transaction_finished` after every
    outcome; then :meth:`choose` implements the §VI-B rule with live
    estimates.

    ``short_factor`` splits "short" from "long" transactions: a transaction
    is short when its expected duration is below ``short_factor`` times the
    recent mean duration.
    """

    def __init__(
        self,
        initial_update_interval: float = float("inf"),
        short_factor: float = 1.0,
        alpha: float = 0.3,
    ) -> None:
        self._interval = EwmaEstimator(alpha=alpha)
        if initial_update_interval != float("inf"):
            self._interval.observe(initial_update_interval)
        self._duration = EwmaEstimator(alpha=alpha)
        self._per_query_time = EwmaEstimator(alpha=alpha)
        self._last_publish_at: Optional[float] = None
        self.short_factor = short_factor
        #: Name of the approach chosen for each transaction (for audits).
        self.choices: Dict[str, str] = {}

    # -- observations -----------------------------------------------------------

    def on_policy_published(self, now: float) -> None:
        """Feed one policy publication event (any domain)."""
        if self._last_publish_at is not None:
            gap = now - self._last_publish_at
            if gap > 0:
                self._interval.observe(gap)
        self._last_publish_at = now

    def on_transaction_finished(self, duration: float, queries: int) -> None:
        """Feed one finished transaction's duration."""
        if duration > 0:
            self._duration.observe(duration)
            if queries > 0:
                self._per_query_time.observe(duration / queries)

    # -- estimates ----------------------------------------------------------------

    @property
    def estimated_update_interval(self) -> float:
        return self._interval.value if self._interval.value is not None else float("inf")

    @property
    def estimated_mean_duration(self) -> float:
        return self._duration.value if self._duration.value is not None else 0.0

    def expected_duration(self, txn: Transaction) -> float:
        """Projected wall time for ``txn`` from per-query observations."""
        per_query = self._per_query_time.value
        if per_query is None:
            return self.estimated_mean_duration
        return per_query * max(1, txn.size)

    # -- the decision ---------------------------------------------------------------

    def choose(self, txn: Transaction) -> ProofApproach:
        """Apply the §VI-B rule with current estimates."""
        expected = self.expected_duration(txn)
        interval = self.estimated_update_interval
        mean = self.estimated_mean_duration
        short = expected <= self.short_factor * mean if mean > 0 else True
        frequent = expected >= interval
        name = recommend_regime(short_txn=short, updates_frequent=frequent)
        self.choices[txn.txn_id] = name
        return get_approach(name)

    def attach(self, cluster: "Cluster") -> None:  # noqa: F821 - workloads.testbed
        """Convenience wiring: observe every administrator of a cluster."""
        for administrator in cluster.admins.values():
            administrator.on_publish(
                lambda _policy: self.on_policy_published(cluster.env.now)
            )


def run_adaptive_batch(cluster, selector, transactions, consistency):
    """Driver generator: run a batch choosing the approach per transaction.

    Yields inside the cluster's environment; returns the outcome list.
    Feed it to ``cluster.env.process`` and run.
    """
    outcomes = []
    for txn in transactions:
        approach = selector.choose(txn)
        process = cluster.tm.submit(txn, approach, consistency)
        outcome = yield process
        selector.on_transaction_finished(outcome.latency, outcome.queries_total)
        outcomes.append(outcome)
    return outcomes
