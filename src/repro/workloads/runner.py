"""Open-loop workload execution across one or more transaction managers.

"Multiple TMs could be invoked as the system workload increases for load
balancing, but each transaction is handled by only one TM" (Section III-A).
:class:`OpenLoopRunner` submits transactions at externally given arrival
times (e.g. a Poisson process), assigning each to a TM round-robin, and
collects every outcome — the machinery for throughput/latency-under-load
experiments that a closed loop cannot express.

Every outcome is folded into an online
:class:`~repro.metrics.stats.StreamingOutcomeAggregator` (:attr:`stream`),
and completion is tracked with one in-flight counter.
``CloudConfig.streaming_metrics`` picks what else the runner keeps:

* off (default): every outcome also lands in :attr:`outcomes`, and
  :attr:`assignments` keeps every transaction's TM — convenient for tests
  and small benches;
* on: nothing per transaction outlives it — the ``assignments`` entry is
  evicted as each transaction completes (the coordinator keeps finished
  contexts only when the run is traced).  Peak memory is bounded by the
  number of *in-flight* transactions, not the length of the run — what
  makes 10^5-user ``bench_scale`` runs routine (see docs/scale.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.approaches import ProofApproach, get_approach
from repro.core.consistency import ConsistencyLevel
from repro.errors import SimulationError
from repro.metrics.stats import StreamingOutcomeAggregator, TransactionOutcome
from repro.sim.events import Event
from repro.transactions.transaction import Transaction
from repro.workloads.testbed import Cluster


@dataclass
class OpenLoopRunner:
    """Submits a timed workload and gathers outcomes.

    ``assignments`` records which TM coordinated each transaction, so tests
    can verify the balancing discipline.  (Under ``streaming_metrics`` entries
    are popped as transactions finish — ``on_outcome`` observers still see
    the assignment, since hooks run before eviction.)
    """

    cluster: Cluster
    approach: Union[str, ProofApproach]
    consistency: ConsistencyLevel = ConsistencyLevel.VIEW
    outcomes: List[TransactionOutcome] = field(default_factory=list)
    assignments: Dict[str, str] = field(default_factory=dict)
    #: Optional coordinator router: transaction → TM index.  ``None``
    #: keeps round-robin assignment; multi-region runs pass
    #: ``cluster.tm_index_for`` so each transaction is coordinated by its
    #: home shard's TM (see docs/scale.md).
    tm_for: Optional[Callable[[Transaction], int]] = None
    #: Optional per-outcome hook, invoked synchronously (in simulation
    #: time) as each transaction finishes — the place for streaming
    #: accounting at scale (e.g. the stale-commit tracker) that must not
    #: retain per-transaction state until the end of the run.
    on_outcome: Optional[Callable[[TransactionOutcome], None]] = None
    #: The online aggregate of every outcome.
    stream: StreamingOutcomeAggregator = field(default_factory=StreamingOutcomeAggregator)

    # A plain class attribute (not a dataclass field): resolved per run.
    _retain = True

    def __post_init__(self) -> None:
        if isinstance(self.approach, str):
            self.approach = get_approach(self.approach)

    def run(
        self,
        transactions: Sequence[Transaction],
        arrival_times: Sequence[float],
        until: Optional[float] = None,
    ) -> List[TransactionOutcome]:
        """Submit each transaction at its arrival time; run to completion.

        Arrival times must be non-decreasing and are interpreted as
        absolute simulation times (>= the environment's current time).
        Returns the retained outcomes (empty under ``streaming_metrics`` —
        read :attr:`stream` instead).
        """
        if len(transactions) != len(arrival_times):
            raise SimulationError("one arrival time per transaction required")
        if list(arrival_times) != sorted(arrival_times):
            raise SimulationError("arrival times must be non-decreasing")
        self._execute(
            ((arrival, txn, None) for txn, arrival in zip(transactions, arrival_times)),
            until,
        )
        return list(self.outcomes)

    def run_scheduled(
        self, schedule: Iterable[object], until: Optional[float] = None
    ) -> List[TransactionOutcome]:
        """Open-loop run over an iterable of scheduled transactions.

        Each element carries ``arrival``, ``txn``, and ``tm_index``
        attributes (duck-typed; e.g.
        :class:`repro.workloads.scale.ScheduledTransaction`) and must come
        in non-decreasing arrival order.  The iterable is consumed lazily —
        pass a generator and, with streaming metrics on, peak memory stays
        independent of the schedule length.  ``tm_index`` routes each
        transaction directly (``tm_for`` still wins if set; ``None`` falls
        back to round-robin).
        """
        self._execute(
            ((entry.arrival, entry.txn, entry.tm_index) for entry in schedule),  # type: ignore[attr-defined]
            until,
        )
        return list(self.outcomes)

    def _execute(
        self,
        items: Iterable[Tuple[float, Transaction, Optional[int]]],
        until: Optional[float],
    ) -> None:
        env = self.cluster.env
        self._retain = not self.cluster.config.streaming_metrics
        state = {"pending": 0, "submitted_all": False}
        done = env.event()

        # One callback for every transaction, not a bound method per submit.
        def _finished_one(event: Event) -> None:
            self._collect(event)
            state["pending"] -= 1
            if state["submitted_all"] and state["pending"] == 0 and not done.triggered:
                done.succeed()

        def submitter() -> Generator[Event, object, None]:
            index = 0
            for arrival, txn, tm_index in items:
                delay = arrival - env.now
                if delay > 0:
                    yield env.timeout(delay)
                if self.tm_for is not None:
                    tm = self.cluster.tms[self.tm_for(txn)]
                elif tm_index is not None:
                    tm = self.cluster.tms[tm_index]
                else:
                    tm = self.cluster.tms[index % len(self.cluster.tms)]
                self.assignments[txn.txn_id] = tm.name
                tm.submit(txn, self.approach, self.consistency).add_callback(_finished_one)
                state["pending"] += 1
                index += 1

        submit_proc = env.process(submitter(), name="open-loop-submitter")
        env.run(until=submit_proc)
        # Wait for every in-flight transaction to finish.
        state["submitted_all"] = True
        if state["pending"]:
            env.run(until=done)
        if until is not None:
            env.run(until=until)

    def _collect(self, event: Event) -> None:
        if event.exception is not None:
            return
        outcome = event.value
        self.stream.add(outcome)
        if self._retain:
            self.outcomes.append(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        if self._retain:
            return
        # Hooks have run; evict this transaction's assignment so the run
        # stays bounded by in-flight work.
        self.assignments.pop(outcome.txn_id, None)

    # -- summaries ---------------------------------------------------------------

    def throughput(self) -> float:
        """Committed transactions per simulated time unit."""
        stream = self.stream
        if not stream.count:
            return 0.0
        span = stream.span
        return stream.commits / span if span > 0 else float("inf")

    def per_tm_counts(self) -> Dict[str, int]:
        """How many transactions each TM coordinated."""
        counts: Dict[str, int] = {}
        for tm_name in self.assignments.values():
            counts[tm_name] = counts.get(tm_name, 0) + 1
        return counts
