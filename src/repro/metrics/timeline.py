"""Proof-evaluation timelines (the paper's Figs. 3–6).

Figures 3–6 plot, per server, *when* proofs of authorization are evaluated
over a transaction's lifetime under each approach.  Cloud servers emit a
``proof.eval`` trace record for every evaluation; this module reconstructs
the figure from the trace: one lane per server, a marker per evaluation,
plus the α(T)/ω(T) window.

Trace reconstruction needs a retained trace, which unbounded streaming
runs don't keep.  Their per-phase split (execution vs the commit-time
protocol) comes from the live-telemetry sketches instead:
``metrics.live.commit_phase`` and ``metrics.live.latency``
(:mod:`repro.obs.live`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
