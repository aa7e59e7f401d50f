"""Proof-evaluation timelines (the paper's Figs. 3–6).

Figures 3–6 plot, per server, *when* proofs of authorization are evaluated
over a transaction's lifetime under each approach.  Cloud servers emit a
``proof.eval`` trace record for every evaluation; this module reconstructs
the figure from the trace: one lane per server, a marker per evaluation,
plus the α(T)/ω(T) window.

Trace reconstruction needs a retained trace, which unbounded streaming
runs don't keep.  :class:`StreamingPhaseBreakdown` is the constant-memory
counterpart: it accumulates the headline per-phase split (execution vs the
commit-time protocol) online from finished outcomes, so the scale bench
can still report where transaction time goes at 10^5 users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import TransactionOutcome
from repro.sim.tracing import PROOF_EVAL, TXN_DONE, TXN_READY, TXN_START, Tracer


@dataclass(frozen=True)
class ProofEvent:
    """One proof evaluation: which server, when, and in which phase."""

    server: str
    time: float
    phase: str  # "execution" or "commit"
    query_id: str


@dataclass(frozen=True)
class TransactionTimeline:
    """The reconstructed figure for one transaction."""

    txn_id: str
    start: float
    ready: Optional[float]
    end: Optional[float]
    events: Tuple[ProofEvent, ...]

    def lanes(self) -> Dict[str, List[ProofEvent]]:
        """Events grouped per server lane, time-ordered."""
        lanes: Dict[str, List[ProofEvent]] = {}
        for event in sorted(self.events, key=lambda item: item.time):
            lanes.setdefault(event.server, []).append(event)
        return lanes

    def render(self, width: int = 60) -> str:
        """ASCII rendering: one lane per server, ``*`` per proof evaluation.

        Mirrors the layout of the paper's figures: horizontal lines are the
        transaction lifetime, stars mark proof evaluations.
        """
        if self.end is None or self.end <= self.start:
            return f"[{self.txn_id}] no completed window"
        span = self.end - self.start

        def column(time: float) -> int:
            return min(width - 1, max(0, int((time - self.start) / span * (width - 1))))

        lines = [f"txn {self.txn_id}: alpha(T)={self.start:.2f}  omega(T)={self.end:.2f}"]
        for server, events in sorted(self.lanes().items()):
            lane = ["-"] * width
            for event in events:
                lane[column(event.time)] = "*"
            lines.append(f"{server:>10} |{''.join(lane)}|")
        legend = " " * 11 + "*: proof of authorization evaluation"
        lines.append(legend)
        return "\n".join(lines)


def extract_timeline(tracer: Tracer, txn_id: str) -> TransactionTimeline:
    """Build the timeline of one transaction from a simulation trace."""
    start = ready = end = None
    events: List[ProofEvent] = []
    for record in tracer:
        if record.get("txn_id") != txn_id:
            continue
        if record.category == TXN_START:
            start = record.time
        elif record.category == TXN_READY:
            ready = record.time
        elif record.category == TXN_DONE:
            end = record.time
        elif record.category == PROOF_EVAL:
            events.append(
                ProofEvent(
                    server=record.get("server", "?"),
                    time=record.time,
                    phase=record.get("phase", "execution"),
                    query_id=record.get("query_id", "?"),
                )
            )
    if start is None:
        start = min((event.time for event in events), default=0.0)
    return TransactionTimeline(txn_id, start, ready, end, tuple(events))


class StreamingPhaseBreakdown:
    """Online execution/commit-phase time accounting — no trace required.

    Folds each finished :class:`~repro.metrics.stats.TransactionOutcome`
    into per-phase sums plus fixed-``resolution`` histograms (bin index →
    count), so the α(T)→ω(T) execution window and the ω(T)→decision commit
    window can be reported for runs of any length in O(1) memory.  Wire
    :meth:`observe` into ``OpenLoopRunner.on_outcome``.

    Passing ``sketch_accuracy`` additionally maintains one
    :class:`repro.obs.sketch.QuantileSketch` per phase, so
    :meth:`quantile` reports any per-phase percentile within the given
    relative-error bound — still O(1) memory in the run length.
    """

    __slots__ = (
        "resolution",
        "count",
        "execution_sum",
        "commit_phase_sum",
        "_execution_bins",
        "_commit_bins",
        "_execution_sketch",
        "_commit_sketch",
    )

    def __init__(
        self, resolution: float = 1.0, sketch_accuracy: Optional[float] = None
    ) -> None:
        if resolution <= 0:
            raise ValueError("histogram resolution must be positive")
        self.resolution = resolution
        self.count = 0
        self.execution_sum = 0.0
        self.commit_phase_sum = 0.0
        self._execution_bins: Dict[int, int] = {}
        self._commit_bins: Dict[int, int] = {}
        if sketch_accuracy is not None:
            # Local import: repro.obs.sketch is dependency-free, but the
            # metrics layer should not require repro.obs unless asked to.
            from repro.obs.sketch import QuantileSketch

            self._execution_sketch: Optional["QuantileSketch"] = QuantileSketch(
                sketch_accuracy
            )
            self._commit_sketch: Optional["QuantileSketch"] = QuantileSketch(
                sketch_accuracy
            )
        else:
            self._execution_sketch = None
            self._commit_sketch = None

    def observe(self, outcome: TransactionOutcome) -> None:
        self.count += 1
        execution = outcome.execution_done_at - outcome.started_at
        commit_phase = outcome.finished_at - outcome.execution_done_at
        self.execution_sum += execution
        self.commit_phase_sum += commit_phase
        bin_index = int(execution / self.resolution)
        self._execution_bins[bin_index] = self._execution_bins.get(bin_index, 0) + 1
        bin_index = int(commit_phase / self.resolution)
        self._commit_bins[bin_index] = self._commit_bins.get(bin_index, 0) + 1
        if self._execution_sketch is not None:
            self._execution_sketch.add(execution)
            assert self._commit_sketch is not None
            self._commit_sketch.add(commit_phase)

    def quantile(self, phase: str, fraction: float) -> float:
        """Per-phase quantile from the sketch (requires ``sketch_accuracy``)."""
        if phase == "commit":
            sketch = self._commit_sketch
        elif phase == "execution":
            sketch = self._execution_sketch
        else:
            raise ValueError(f"unknown phase {phase!r}")
        if sketch is None:
            raise ValueError(
                "quantile() needs StreamingPhaseBreakdown(sketch_accuracy=...)"
            )
        return sketch.quantile(fraction)

    @property
    def mean_execution_time(self) -> float:
        """Mean α(T)→ω(T) window across observed transactions."""
        return self.execution_sum / self.count if self.count else 0.0

    @property
    def mean_commit_phase_time(self) -> float:
        """Mean ω(T)→decision window across observed transactions."""
        return self.commit_phase_sum / self.count if self.count else 0.0

    def rows(self, phase: str = "commit") -> List[Tuple[float, float, int]]:
        """Histogram rows ``(bin_low, bin_high, count)`` for one phase."""
        if phase == "commit":
            bins = self._commit_bins
        elif phase == "execution":
            bins = self._execution_bins
        else:
            raise ValueError(f"unknown phase {phase!r}")
        return [
            (index * self.resolution, (index + 1) * self.resolution, bins[index])
            for index in sorted(bins)
        ]
