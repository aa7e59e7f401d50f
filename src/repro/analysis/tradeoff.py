"""The Section VI-B decision guide, as executable logic.

The paper's qualitative recommendations:

* transaction length **<** update interval, short transactions → **Deferred**
  (rollbacks are cheap, so optimism wins);
* transaction length **<** update interval, long transactions → **Punctual**
  (detect inconsistencies early, update, finish under the fresh policy);
* transaction length **>** update interval, long transactions →
  **Continuous** (prevents potentially long rollbacks);
* transaction length **>** update interval, short transactions →
  **Incremental** (no extra policy synchronizations prolonging the txn).

:func:`recommend` encodes the rule; :func:`empirical_quadrants` measures
each quadrant with the simulator so the TR3 bench can verify the
recommendation actually wins (or report where it does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.sweep import SweepPoint, SweepResult
from repro.core.approaches import PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import aggregate


def recommend(txn_length_time: float, update_interval: float, short_threshold: float) -> str:
    """The paper's recommendation for a workload regime.

    ``txn_length_time`` and ``update_interval`` are in simulation time
    units; ``short_threshold`` splits short from long transactions.
    """
    return recommend_regime(
        short_txn=txn_length_time <= short_threshold,
        updates_frequent=txn_length_time >= update_interval,
    )


def recommend_regime(short_txn: bool, updates_frequent: bool) -> str:
    """Section VI-B's 2×2 recommendation matrix."""
    if not updates_frequent:
        return "deferred" if short_txn else "punctual"
    return "incremental" if short_txn else "continuous"


@dataclass
class QuadrantResult:
    """Measured outcomes for one (txn length × update interval) quadrant.

    Section VI-B structures the decision as two pairwise choices: the
    update frequency selects the *pair* ({Deferred, Punctual} when updates
    are rarer than transactions; {Incremental, Continuous} otherwise) and
    the transaction length selects *within* the pair.  ``pair`` holds the
    two candidates for this quadrant; :meth:`pair_winner` is the measured
    winner among them.
    """

    name: str
    txn_length: int
    update_interval: float
    recommended: str
    pair: Tuple[str, str]
    results: Dict[str, SweepResult]

    def ranking(self) -> List[Tuple[str, float]]:
        """Approaches ranked best-first by time cost per committed txn.

        The score is the total simulated time spent on the workload
        (including time burnt on rolled-back attempts) divided by the
        number of commits achieved — the two costs Section VI-B weighs
        against each other.  Aborting everything instantly is cheap on
        latency but scores terribly here, as it should.
        """
        scored: List[Tuple[str, float]] = []
        for approach, result in self.results.items():
            total_time = sum(outcome.latency for outcome in result.outcomes)
            commits = result.summary.commits
            if commits == 0:
                scored.append((approach, float("inf")))
            else:
                scored.append((approach, total_time / commits))
        return sorted(scored, key=lambda pair: pair[1])

    def winner(self) -> str:
        return self.ranking()[0][0]

    def pair_winner(self) -> str:
        """Measured winner among the quadrant's two candidate approaches."""
        for approach, _score in self.ranking():
            if approach in self.pair:
                return approach
        return self.pair[0]  # pragma: no cover - ranking always covers pair


def empirical_quadrants(
    short_length: int = 2,
    long_length: int = 8,
    frequent_interval: float = 15.0,
    infrequent_interval: float = 200.0,
    n_transactions: int = 25,
    seeds: Sequence[int] = (19, 7, 101),
    consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
    parallel: bool = True,
) -> List[QuadrantResult]:
    """Measure all four quadrants of the Section VI-B trade-off space.

    The update regimes mirror the paper's reasoning:

    * **Infrequent** quadrants use occasional *persistent* policy flips
      (tighten, much later restore): an affected transaction is doomed
      until the flip reverses, so what matters is how cheaply an approach
      detects it (Punctual's early detection vs Deferred's cheap optimism)
      — the paper's "expensive undo operations" comparison.
    * **Frequent** quadrants use *benign version churn*: versions move
      constantly without changing outcomes, so what matters is how an
      approach copes with inconsistency (Incremental's abort-and-retry vs
      Continuous's synchronize-and-proceed).

    Clients retry policy-caused aborts (with a backoff in the incident
    regime), so the score is total time spent per successful commit.
    Results aggregate over ``seeds``; replication delay is tight (2–10
    time units) so version-divergence windows are short relative to the
    update interval.

    With ``parallel=True`` (the default) the full quadrant × seed ×
    approach grid fans out over worker processes through
    :func:`repro.analysis.parallel.run_sweep`; every point is seeded
    explicitly, so the measured results are identical to a serial run.
    """
    quadrants = [
        ("short-txn / infrequent-updates", short_length, infrequent_interval, False),
        ("long-txn / infrequent-updates", long_length, infrequent_interval, False),
        ("short-txn / frequent-updates", short_length, frequent_interval, True),
        ("long-txn / frequent-updates", long_length, frequent_interval, True),
    ]
    grid: List[SweepPoint] = []
    labels: List[Tuple[str, str]] = []  # (quadrant name, approach) per point
    for name, length, interval, frequent in quadrants:
        for seed in seeds:
            for approach in PAPER_APPROACHES:
                grid.append(
                    SweepPoint(
                        approach=approach,
                        consistency=consistency,
                        n_servers=max(3, length),
                        txn_length=length,
                        n_transactions=n_transactions,
                        update_interval=interval,
                        update_mode="benign" if frequent else "alternate",
                        retry_policy_aborts=True,
                        max_retries=5,
                        retry_backoff=0.0 if frequent else interval / 3,
                        seed=seed,
                        config_overrides={"replication_delay": (2.0, 10.0)},
                    )
                )
                labels.append((name, approach))

    from repro.analysis.parallel import run_sweep

    results = run_sweep(grid, parallel=parallel)

    out: List[QuadrantResult] = []
    for name, length, interval, frequent in quadrants:
        merged: Dict[str, SweepResult] = {}
        for (point_name, approach), result in zip(labels, results):
            if point_name != name:
                continue
            if approach not in merged:
                merged[approach] = result
            else:
                combined = merged[approach].outcomes + result.outcomes
                merged[approach] = SweepResult(
                    result.point, combined, aggregate(combined)
                )
        pair = ("incremental", "continuous") if frequent else ("deferred", "punctual")
        out.append(
            QuadrantResult(
                name=name,
                txn_length=length,
                update_interval=interval,
                recommended=recommend_regime(
                    short_txn=(length == short_length),
                    updates_frequent=frequent,
                ),
                pair=pair,
                results=merged,
            )
        )
    return out
