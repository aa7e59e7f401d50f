"""Structured trace recording for simulations.

A :class:`Tracer` accumulates timestamped records.  Benches use it to
reconstruct the paper's timeline figures (Figs. 3–6: *when* did each server
evaluate a proof of authorization) and tests use it to assert protocol
message orderings (Fig. 7).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: ``(key, value)`` pairs in ascending key order, no key twice: the shape of
#: :attr:`TraceRecord.details` and of ``repro.verify.events.VerifyEvent.data``.
Pairs = Tuple[Tuple[str, Any], ...]

#: Trace categories, each defined here once: the facts
#: :class:`repro.metrics.counters.Metrics` records, which the timeline
#: figures, the span cross-check and the conformance checker read back.
NET_SEND = "net.send"
NET_RECV = "net.recv"
NET_DROP = "net.drop"
FAULT_CRASH = "fault.crash"
FAULT_RECOVER = "fault.recover"
PROOF_EVAL = "proof.eval"
LOCK_GRANT = "lock.grant"
LOCK_RELEASE = "lock.release"
TXN_START = "txn.start"
TXN_READY = "txn.ready"
TXN_DONE = "txn.done"


def pair_value(pairs: Pairs, key: str, default: Any = None) -> Any:
    """The value paired with ``key``, or ``default``."""
    for name, value in pairs:
        if name == key:
            return value
    return default


class TraceRecord(NamedTuple):
    """One trace entry: a timestamp, a category, and free-form details.

    A tuple, so a record is one allocation, immutable by construction, and
    hashes and compares structurally.
    """

    time: float
    category: str
    details: Pairs

    def get(self, key: str, default: Any = None) -> Any:
        """Look up a detail by key."""
        return pair_value(self.details, key, default)

    def as_dict(self) -> Dict[str, Any]:
        """The details as a plain dict (plus ``time`` and ``category``)."""
        out: Dict[str, Any] = {"time": self.time, "category": self.category}
        out.update(self.details)
        return out


class Tracer:
    """Collects :class:`TraceRecord` objects during a simulation run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []

    def record(self, time: float, category: str, items: Pairs = (), **details: Any) -> None:
        """Append a record (no-op when tracing is disabled).

        Details are stored as :data:`Pairs`, key-sorted — the invariant every
        consumer relies on.  ``items`` is stored *as passed*: it is for the
        fact methods of :class:`repro.metrics.counters.Metrics`, which sit on
        the hot path of every message, lock transition and proof evaluation
        and write their pairs down already in key order (the fact table in
        docs/architecture.md is the spec, ``tests/obs/test_record_shapes.py``
        enforces it).  Everyone else passes keywords, which are merged with
        ``items`` and sorted here.
        """
        if not self.enabled:
            return
        if details:
            items = tuple(sorted((*items, *details.items())))
        # ``tuple.__new__``: the namedtuple's own ``__new__`` is a Python frame per record.
        self._records.append(tuple.__new__(TraceRecord, (time, category, items)))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records filtered by category and/or an arbitrary predicate."""
        records = self._records
        if category is not None:
            records = [record for record in records if record.category == category]
        if predicate is not None:
            records = [record for record in records if predicate(record)]
        return list(records)

    def categories(self) -> List[str]:
        """Distinct categories seen, in first-seen order."""
        seen: List[str] = []
        for record in self._records:
            if record.category not in seen:
                seen.append(record.category)
        return seen

    def clear(self) -> None:
        """Drop all recorded entries."""
        self._records.clear()
