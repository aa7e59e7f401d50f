"""Violation-triggered flight recorder: bounded evidence rings per server.

Large streaming runs disable the retained :class:`~repro.sim.tracing.Tracer`
(the trace alone would dwarf the simulation), so when something goes wrong
at 10⁵ users there is normally *nothing* to look at.  The
:class:`FlightRecorder` is the bounded substitute: every node keeps a ring
of its most recent events (network sends, proof evaluations, transaction
lifecycle edges), and on a :class:`~repro.errors.VerificationError`, a
conformance violation, or an explicit trigger the recorder dumps a
self-contained :class:`IncidentBundle` — the merged recent-event window as
JSONL, a metrics snapshot in OpenMetrics text (strictly valid, see
:func:`repro.obs.openmetrics.validate_openmetrics`), and, when spans were
recorded, a waterfall render of each implicated transaction.

Rings hold plain tuples copied out of the simulation objects — never the
pooled kernel/event objects themselves — so eviction order and content are
bit-identical whether or not the kernel pools its timeouts (tested in
``tests/obs/test_flight.py``).

Enable with ``CloudConfig.flight_recorder``; the conformance entry points
(:func:`repro.verify.verify_cluster`, the chaos fuzzer) trigger a dump through
:func:`repro.verify.dump_incident` whenever a checked run has violations.  Library code never writes to disk —
:meth:`IncidentBundle.write` is for callers (CLIs, benches, tests).
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.render import render_waterfall

__all__ = ["FlightEvent", "FlightRecorder", "IncidentBundle"]

#: Default per-node ring capacity (events retained per server/TM).
DEFAULT_CAPACITY = 256
#: Incident bundles retained in memory (oldest dropped first).
MAX_BUNDLES = 8


@dataclass(frozen=True)
class FlightEvent:
    """One ring entry: a compact, JSON-ready observation on one node."""

    seq: int
    time: float
    node: str
    category: str
    txn_id: Optional[str]
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "node": self.node,
            "category": self.category,
        }
        if self.txn_id is not None:
            record["txn_id"] = self.txn_id
        for key, value in self.detail:
            record[key] = value
        return record


@dataclass
class IncidentBundle:
    """A self-contained, replayable snapshot of one incident."""

    reason: str
    created_at: float
    #: Merged recent-event window across every node ring, in record order.
    events: List[Dict[str, Any]]
    #: Formatted conformance violations that triggered the dump (if any).
    violations: Tuple[str, ...] = ()
    #: Strict OpenMetrics snapshot of the run's counters (and sketches).
    openmetrics: Optional[str] = None
    #: txn_id → ASCII waterfall of its span tree (span-recorded runs only).
    waterfalls: Dict[str, str] = field(default_factory=dict)

    def events_jsonl(self) -> str:
        """The event window as JSON Lines (one event per line)."""
        return "\n".join(json.dumps(event, sort_keys=True) for event in self.events) + (
            "\n" if self.events else ""
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "created_at": self.created_at,
            "violations": list(self.violations),
            "events": self.events,
            "waterfalls": dict(self.waterfalls),
            "has_openmetrics": self.openmetrics is not None,
        }

    def write(self, directory: "pathlib.Path | str") -> pathlib.Path:
        """Materialize the bundle under ``directory``; returns the path.

        Layout: ``manifest.json`` (reason, violations, file inventory),
        ``events.jsonl`` (the evidence window), ``metrics.om`` (OpenMetrics
        snapshot, when captured), and ``waterfall.txt`` (one section per
        implicated transaction, when spans were available).
        """
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / "events.jsonl").write_text(self.events_jsonl(), encoding="utf-8")
        files = ["events.jsonl"]
        if self.openmetrics is not None:
            (path / "metrics.om").write_text(self.openmetrics, encoding="utf-8")
            files.append("metrics.om")
        if self.waterfalls:
            sections = []
            for txn_id in sorted(self.waterfalls):
                sections.append(f"== {txn_id} ==\n{self.waterfalls[txn_id]}")
            (path / "waterfall.txt").write_text(
                "\n\n".join(sections) + "\n", encoding="utf-8"
            )
            files.append("waterfall.txt")
        manifest = {
            "reason": self.reason,
            "created_at": self.created_at,
            "violations": list(self.violations),
            "n_events": len(self.events),
            "files": files,
        }
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path


class FlightRecorder:
    """Per-node bounded rings of recent events, dumped on demand.

    Lives at ``Metrics.flight`` (the testbed attaches it when
    ``CloudConfig.flight_recorder`` is on) and hears facts only through the
    handle's fact methods, which call :meth:`record` / :meth:`on_message`
    with the simulation time of the fact — the recorder has no clock of its
    own.  Each call appends one plain tuple to the source node's ring.
    Memory is ``capacity × nodes`` events, independent of run length.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        #: node -> ring of ``FlightEvent`` field tuples (built on inspection).
        self._rings: Dict[str, Deque[Tuple[Any, ...]]] = {}
        self._seq = 0
        self.recorded = 0
        self.dumps = 0
        #: Most recent bundles (bounded); the newest is :attr:`last_bundle`.
        self.bundles: List[IncidentBundle] = []

    # -- recording -------------------------------------------------------------

    def record(
        self,
        node: str,
        time: float,
        category: str,
        txn_id: Optional[str] = None,
        detail: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        """Append one event to ``node``'s ring (evicting the oldest)."""
        if not self.enabled:
            return
        ring = self._rings.get(node)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[node] = ring
        ring.append((self._seq, time, node, category, txn_id, detail))
        self._seq += 1
        self.recorded += 1

    def on_message(self, message: Any, now: float) -> None:
        """A message sent at ``now``: recorded on the source node's ring."""
        if not self.enabled:
            return
        self.record(
            message.src,
            now,
            "net.send",
            txn_id=message.payload.get("txn_id"),
            detail=(("kind", message.kind), ("dst", message.dst)),
        )

    # -- inspection ------------------------------------------------------------

    def nodes(self) -> List[str]:
        return sorted(self._rings)

    def events(self, node: Optional[str] = None) -> List[FlightEvent]:
        """The retained window, in global record order (``seq``).

        ``node`` restricts to one ring; the merged view interleaves every
        ring exactly as the events were recorded.
        """
        rings = [self._rings.get(node, ())] if node is not None else self._rings.values()
        rows = sorted((row for ring in rings for row in ring), key=lambda row: row[0])
        return [FlightEvent(*row) for row in rows]

    def clear(self) -> None:
        self._rings.clear()

    @property
    def last_bundle(self) -> Optional[IncidentBundle]:
        return self.bundles[-1] if self.bundles else None

    # -- dumping ---------------------------------------------------------------

    def dump(
        self,
        reason: str,
        now: float,
        violations: Any = None,
        metrics: Any = None,
    ) -> IncidentBundle:
        """Build (and retain) an incident bundle from the current rings.

        ``violations`` is a :class:`repro.verify.report.VerificationReport`
        (or any object with a ``violations`` list); ``metrics`` is the
        world's :class:`~repro.metrics.counters.Metrics` handle: its counters
        and live sketches feed the OpenMetrics snapshot, its span recorder
        the waterfalls of the implicated transactions.
        """
        events = [event.to_dict() for event in self.events()]
        formatted: Tuple[str, ...] = ()
        implicated: List[str] = []
        if violations is not None:
            rows = getattr(violations, "violations", violations)
            formatted = tuple(
                violation.format() if hasattr(violation, "format") else str(violation)
                for violation in rows
            )
            seen = set()
            for violation in rows:
                txn_id = getattr(violation, "txn_id", None)
                if txn_id and txn_id not in seen:
                    seen.add(txn_id)
                    implicated.append(txn_id)
        snapshot: Optional[str] = None
        waterfalls: Dict[str, str] = {}
        if metrics is not None:
            # Local import: repro.obs.openmetrics sits above repro.metrics;
            # importing it eagerly would cycle through this package init.
            from repro.obs.openmetrics import render_openmetrics

            recorder = metrics.spans
            snapshot = render_openmetrics(metrics, recorder=recorder)
            if recorder.enabled:
                available = set(recorder.traces())
                for txn_id in implicated:
                    if txn_id in available:
                        waterfalls[txn_id] = render_waterfall(recorder.tree(txn_id))
        bundle = IncidentBundle(
            reason=reason,
            created_at=now,
            events=events,
            violations=formatted,
            openmetrics=snapshot,
            waterfalls=waterfalls,
        )
        self.bundles.append(bundle)
        del self.bundles[:-MAX_BUNDLES]
        self.dumps += 1
        return bundle
