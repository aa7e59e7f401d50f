"""Causal spans over the deterministic simulator.

A :class:`Span` is one timed unit of work — a whole transaction, a protocol
phase, an RPC round trip, a lock wait, a proof evaluation — linked to its
parent by a :data:`SpanContext`.  The context is a plain ``(trace_id,
span_id)`` tuple small enough to ride inside a message payload, which is how
causality crosses the simulated network: the coordinator embeds its current
span's context in each request and the participant parents its handler span
under it (see :mod:`repro.sim.network`).

Everything here is deterministic: span ids are a per-recorder counter,
timestamps are simulation clocks, and sampling hashes the trace id with
``zlib.crc32`` — no wall clocks, no process-global randomness (the repo's
DET001/DET002 rules).  A disabled or sampled-out trace costs one predicate
call per ``start``; every helper accepts ``None`` spans so call sites never
branch on whether tracing is on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Span kinds.  These are the attribution buckets of the critical-path
#: analysis (:mod:`repro.obs.critical`) — every span belongs to exactly one.
KIND_TXN = "txn"  #: transaction root (coordinator)
KIND_PHASE = "phase"  #: execute / validate / commit phase (coordinator)
KIND_RPC = "rpc"  #: request/reply round trip (network wait)
KIND_SERVER = "server"  #: participant-side handler work
KIND_CPU = "cpu"  #: simulated local compute (query execution, constraints)
KIND_LOCK = "lock"  #: 2PL lock wait
KIND_PROOF = "proof"  #: proof-of-authorization evaluation
KIND_LOG = "log"  #: forced WAL write

ALL_KINDS = (
    KIND_TXN,
    KIND_PHASE,
    KIND_RPC,
    KIND_SERVER,
    KIND_CPU,
    KIND_LOCK,
    KIND_PROOF,
    KIND_LOG,
)

#: Phase-span names used by the coordinator instrumentation.  The export
#: layer (:func:`repro.obs.critical.phase_columns`) keys on these.
PHASE_EXECUTE = "phase.execute"
PHASE_VALIDATE = "phase.validate"
PHASE_COMMIT = "phase.commit"

#: ``(trace_id, span_id)`` — the portable causal reference.
SpanContext = Tuple[str, int]

#: Denominator of the deterministic sampling hash.
SAMPLE_MODULUS = 1_000_000


@dataclass
class Span:
    """One timed unit of work, causally linked to its parent.

    ``attrs`` values should stay JSON-primitive (str/int/float/bool/None)
    so spans round-trip losslessly through the JSONL export.
    """

    span_id: int
    trace_id: str
    parent_id: Optional[int]
    name: str
    kind: str
    node: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        """The portable reference used to parent remote work under this span."""
        return (self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed simulated time (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable key order) for the JSONL export."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=data["span_id"],
            trace_id=data["trace_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            kind=data["kind"],
            node=data["node"],
            start=data["start"],
            end=data["end"],
            attrs=dict(data.get("attrs") or {}),
        )


ParentRef = Union[Span, SpanContext, None]


def context_of(parent: ParentRef) -> Optional[SpanContext]:
    """Normalize a parent reference (span, context tuple, or None);
    :meth:`SpanRecorder.start` reads the same three shapes for the id alone."""
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return (parent[0], parent[1])


def annotate(span: Optional[Span], **attrs: Any) -> None:
    """Attach attributes to a span; safe no-op on ``None`` (unsampled)."""
    if span is not None:
        span.attrs.update(attrs)


class SpanRecorder:
    """Collects spans for a run; the single source of truth per cluster.

    ``sample_rate`` selects whole traces deterministically: a trace is in
    the sample iff ``crc32(trace_id) % 10**6 < rate * 10**6``, so the same
    transaction is sampled (or not) on every run, every process, every
    platform.  An unsampled trace records nothing anywhere — ``start``
    returns ``None`` and every downstream helper tolerates that.
    """

    def __init__(self, enabled: bool = True, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate!r}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self._threshold = int(sample_rate * SAMPLE_MODULUS)
        self._spans: List[Span] = []
        self._by_trace: Dict[str, List[Span]] = {}
        self._ids = count(1)
        self._sampled: Dict[str, bool] = {}

    # -- recording -----------------------------------------------------------

    def sampled(self, trace_id: str) -> bool:
        """Whether spans of ``trace_id`` are recorded (memoized per trace)."""
        if not self.enabled:
            return False
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        cached = self._sampled.get(trace_id)
        if cached is None:
            digest = zlib.crc32(trace_id.encode("utf-8")) % SAMPLE_MODULUS
            cached = digest < self._threshold
            self._sampled[trace_id] = cached
        return cached

    def start(
        self,
        trace_id: Optional[str],
        name: str,
        kind: str,
        node: str,
        start: float,
        parent: ParentRef = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Open a span; returns ``None`` when disabled/unsampled/untraced.

        ``parent`` is only read for its span id, and the call's own keyword
        dict (a fresh one per call) becomes the span's ``attrs``.
        """
        if trace_id is None or not self.sampled(trace_id):
            return None
        parent_id: Optional[int] = None  # context_of(parent)[1], no tuple built
        if isinstance(parent, Span):
            parent_id = parent.span_id
        elif parent is not None:
            parent_id = parent[1]
        span = Span(next(self._ids), trace_id, parent_id, name, kind, node, start, None, attrs)
        self._spans.append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def finish(self, span: Optional[Span], end: float, **attrs: Any) -> None:
        """Close a span (first close wins); safe no-op on ``None``."""
        if span is None:
            return
        if span.end is None:
            span.end = end
        if attrs:
            span.attrs.update(attrs)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def traces(self) -> List[str]:
        """Trace ids in first-span order (deterministic)."""
        return list(self._by_trace)

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        """All spans, or one trace's spans, in creation order."""
        if trace_id is None:
            return list(self._spans)
        return list(self._by_trace.get(trace_id, ()))

    def tree(self, trace_id: str) -> "SpanTree":
        """Build the parent/child tree of one trace."""
        return SpanTree.build(trace_id, self.spans(trace_id))

    def clear(self) -> None:
        self._spans.clear()
        self._by_trace.clear()
        self._sampled.clear()


#: Shared do-nothing recorder for nodes constructed without observability
#: wiring (stubs, hand-built nodes).  Stateless while disabled, so sharing
#: one instance across every un-wired node is safe.
NULL_RECORDER = SpanRecorder(enabled=False)


class SpanTree:
    """One trace's spans arranged parent → children, plus well-formedness."""

    def __init__(
        self,
        trace_id: str,
        spans: List[Span],
        root: Optional[Span],
        children: Dict[int, List[Span]],
        orphans: List[Span],
        extra_roots: List[Span],
    ) -> None:
        self.trace_id = trace_id
        self.spans = spans
        self.root = root
        self.children = children
        self.orphans = orphans
        self.extra_roots = extra_roots
        self._depths: Dict[int, int] = {}
        if root is not None:
            stack: List[Tuple[Span, int]] = [(root, 0)]
            while stack:
                span, depth = stack.pop()
                self._depths[span.span_id] = depth
                for child in children.get(span.span_id, ()):
                    stack.append((child, depth + 1))

    @classmethod
    def build(cls, trace_id: str, spans: List[Span]) -> "SpanTree":
        by_id = {span.span_id: span for span in spans}
        children: Dict[int, List[Span]] = {}
        roots: List[Span] = []
        orphans: List[Span] = []
        for span in spans:
            if span.parent_id is None:
                roots.append(span)
            elif span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                orphans.append(span)
        for kids in children.values():
            kids.sort(key=lambda span: (span.start, span.span_id))
        root = roots[0] if roots else None
        return cls(trace_id, list(spans), root, children, orphans, roots[1:])

    def depth(self, span: Span) -> int:
        """Distance from the root (root = 0; disconnected spans = 0)."""
        return self._depths.get(span.span_id, 0)

    def is_connected(self, span: Span) -> bool:
        """Whether ``span`` is reachable from the root."""
        return span.span_id in self._depths

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first preorder from the root: ``(span, depth)`` pairs."""
        if self.root is None:
            return
        stack: List[Tuple[Span, int]] = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            # Reversed so the earliest child is yielded first off the stack.
            for child in reversed(self.children.get(span.span_id, ())):
                stack.append((child, depth + 1))

    def problems(self, tolerance: float = 1e-9) -> List[str]:
        """Well-formedness violations (empty list == well formed).

        Checks: exactly one root, no orphaned parents, every span finished,
        no inverted intervals, and every child's interval inside its
        parent's.  Two sanctioned containment exceptions: children of a
        *timed-out* RPC (``status="timeout"``) may outlive it — the
        coordinator stopped waiting while the participant kept working —
        and *detached* spans (``detached=True``, e.g. a fire-and-forget
        decision handler) may outlive their parent by design.
        """
        out: List[str] = []
        if self.root is None:
            if self.spans:
                out.append(f"{self.trace_id}: no root span")
            return out
        for span in self.extra_roots:
            out.append(f"{self.trace_id}: extra root span {span.span_id} ({span.name})")
        for span in self.orphans:
            out.append(
                f"{self.trace_id}: span {span.span_id} ({span.name}) has "
                f"unknown parent {span.parent_id}"
            )
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            if span.end is None:
                out.append(f"{self.trace_id}: span {span.span_id} ({span.name}) never finished")
                continue
            if span.end < span.start - tolerance:
                out.append(
                    f"{self.trace_id}: span {span.span_id} ({span.name}) "
                    f"ends before it starts ({span.start} -> {span.end})"
                )
            parent = by_id.get(span.parent_id) if span.parent_id is not None else None
            if parent is None:
                continue
            if span.start < parent.start - tolerance:
                out.append(
                    f"{self.trace_id}: span {span.span_id} ({span.name}) "
                    f"starts before its parent {parent.span_id} ({parent.name})"
                )
            parent_escaped = parent.end is not None and span.end > parent.end + tolerance
            excused = parent.attrs.get("status") == "timeout" or span.attrs.get("detached")
            if parent_escaped and not excused:
                out.append(
                    f"{self.trace_id}: span {span.span_id} ({span.name}) "
                    f"ends after its parent {parent.span_id} ({parent.name})"
                )
        return out


def check_all_trees(recorder: SpanRecorder, tolerance: float = 1e-9) -> List[str]:
    """Well-formedness problems across every recorded trace."""
    out: List[str] = []
    for trace_id in recorder.traces():
        out.extend(recorder.tree(trace_id).problems(tolerance))
    return out
