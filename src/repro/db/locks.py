"""Strict two-phase locking with wait-for-graph deadlock detection.

Each cloud server runs one :class:`LockManager`.  Queries acquire shared
(read) or exclusive (write) locks before touching items; all locks are held
until the transaction's global commit/abort decision arrives (strict 2PL),
which is what makes 2PC/2PVC recoverable.

Lock waits are simulation events: :meth:`LockManager.acquire` returns an
event that a server process ``yield``\\ s.  When a wait would close a cycle
in the wait-for graph, the *requesting* transaction is chosen as the victim
and its event fails with :class:`~repro.errors.DeadlockError`.

Queues are strictly FIFO: a waiter is blocked by the key's holders and by
*every* live request queued ahead of it, compatible or not.  The wait-for
graph is never materialised; live waits are indexed per transaction and a
transaction's out-edges are derived from that index when the deadlock
search asks for them, so a lock wait costs what the requester can reach,
not what the table holds (``tests/db/lock_oracle.py`` keeps the full-table
construction as the reference the property tests compare against).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError
from repro.obs.spans import KIND_LOCK, ParentRef, Span
from repro.sim.events import Event
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # repro.metrics imports this module
    from repro.metrics.counters import Metrics


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Standard S/X compatibility matrix."""
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass(eq=False, slots=True)
class _WaitEntry:
    txn_id: str
    key: str
    mode: LockMode
    event: Event
    #: Open ``lock.wait`` span, finished when the wait resolves (grant,
    #: deadlock victim, or cancellation by a global abort).
    span: Optional[Span] = None
    #: Simulation time the request queued, for wait-duration telemetry.
    queued_at: float = 0.0


@dataclass(slots=True)
class _LockState:
    #: Position of the key in the lock table (creation order).
    order: int
    mode: Optional[LockMode] = None
    holders: Set[str] = field(default_factory=set)
    #: Pending requests, FIFO.  Every entry is live: a grant, a deadlock
    #: victim and a cancellation each leave the queue as their event fires.
    queue: Deque[_WaitEntry] = field(default_factory=deque)


class LockManager:
    """Per-server lock table."""

    def __init__(self, env: Environment, server: str, metrics: "Metrics") -> None:
        self.env = env
        self.server = server
        #: The world's observation handle: grants, releases and resolved
        #: queued waits are reported to it, ``lock.wait`` spans opened on it.
        self.metrics = metrics
        self._locks: Dict[str, _LockState] = {}
        #: Keys held per transaction, for O(1) release.
        self._held_by_txn: Dict[str, Set[str]] = {}
        #: Queued requests per transaction, in the order they queued.  The
        #: wait-for graph is read off this index (:meth:`_blockers`) and
        #: ``release_all`` cancels from it, so neither walks the table.
        self._waits_by_txn: Dict[str, List[_WaitEntry]] = {}

    # -- inspection -------------------------------------------------------------

    def holders(self, key: str) -> Tuple[str, ...]:
        state = self._locks.get(key)
        return tuple(sorted(state.holders)) if state else ()

    def mode(self, key: str) -> Optional[LockMode]:
        state = self._locks.get(key)
        return state.mode if state and state.holders else None

    def waiting(self, key: str) -> Tuple[str, ...]:
        state = self._locks.get(key)
        return tuple(entry.txn_id for entry in state.queue) if state else ()

    def locks_held(self, txn_id: str) -> Tuple[str, ...]:
        return tuple(sorted(self._held_by_txn.get(txn_id, ())))

    # -- acquisition ------------------------------------------------------------

    def acquire(
        self, txn_id: str, key: str, mode: LockMode, span: ParentRef = None
    ) -> Event:
        """Request a lock.  The returned event succeeds when granted.

        Reentrant requests (already holding a sufficient lock) succeed
        immediately.  A shared→exclusive upgrade is granted immediately when
        the transaction is the sole holder, otherwise it waits in the queue
        like any other request.  ``span`` parents the ``lock.wait`` span
        recorded when (and only when) the request actually queues.
        """
        event = self.env.event()
        state = self._locks.get(key)
        if state is None:
            state = self._locks[key] = _LockState(order=len(self._locks))

        if txn_id in state.holders:
            if state.mode is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                event.succeed((key, mode))
                return event
            if len(state.holders) == 1:  # sole-holder upgrade
                state.mode = LockMode.EXCLUSIVE
                self.metrics.lock_granted(
                    self.server, txn_id, key, LockMode.EXCLUSIVE, self.env.now
                )
                event.succeed((key, mode))
                return event
            # Upgrade must wait for the other sharers to drain.
            self._enqueue(state, txn_id, key, mode, event, span)
            return event

        if not state.holders and not state.queue:
            self._grant(state, txn_id, key, mode)
            event.succeed((key, mode))
            return event
        if (
            state.holders
            and not state.queue
            and compatible(state.mode, mode)  # type: ignore[arg-type]
        ):
            self._grant(state, txn_id, key, mode)
            event.succeed((key, mode))
            return event

        self._enqueue(state, txn_id, key, mode, event, span)
        return event

    def _grant(self, state: _LockState, txn_id: str, key: str, mode: LockMode) -> None:
        state.mode = mode if not state.holders else state.mode
        state.holders.add(txn_id)
        self._held_by_txn.setdefault(txn_id, set()).add(key)
        self.metrics.lock_granted(self.server, txn_id, key, mode, self.env.now)

    def _enqueue(
        self,
        state: _LockState,
        txn_id: str,
        key: str,
        mode: LockMode,
        event: Event,
        parent: ParentRef = None,
    ) -> None:
        entry = _WaitEntry(txn_id, key, mode, event, queued_at=self.env.now)
        state.queue.append(entry)
        waits = self._waits_by_txn.setdefault(txn_id, [])
        waits.append(entry)
        # A cycle through the requester needs somebody waiting on it, and
        # the new entry is the tail of its queue: a transaction that holds
        # nothing here and is queued nowhere else cannot be waited on.
        if len(waits) > 1 or txn_id in self._held_by_txn:
            cycle = self._find_cycle(txn_id)
            if cycle is not None:
                state.queue.pop()
                self._unindex(entry)
                event.fail(DeadlockError(victim=txn_id, cycle=tuple(cycle)))
                return
        entry.span = self.metrics.spans.start(
            txn_id,
            "lock.wait",
            KIND_LOCK,
            self.server,
            self.env.now,
            parent=parent,
            key=key,
            mode=mode.value,
        )

    # -- release --------------------------------------------------------------

    def release_all(self, txn_id: str) -> None:
        """Strict 2PL release: drop every lock the transaction holds.

        Queued waits of the transaction are *cancelled*: their events fail
        with :class:`DeadlockError` so a handler blocked on the acquire
        wakes up and rolls back instead of waiting forever.  This is how a
        coordinator-initiated abort (e.g. after a request timeout resolving
        a cross-server deadlock) reclaims a participant's queued requests.
        """
        # Cancelled in lock-table order, then queue order: the failed events
        # take kernel sequence numbers, so the order reaches the trace.  The
        # index is in queueing order and the sort is stable, which leaves
        # two waits on one key in queue order.
        cancelled = self._waits_by_txn.pop(txn_id, ())
        for entry in sorted(cancelled, key=lambda entry: self._locks[entry.key].order):
            self._locks[entry.key].queue.remove(entry)
            entry.event.fail(DeadlockError(victim=txn_id, cycle=("cancelled", entry.key)))
            self.metrics.spans.finish(entry.span, self.env.now, status="cancelled")
        # Sorted: the pop order of a set of keys is hash-randomized across
        # interpreter runs, and it decides which queued waiter is promoted
        # first — which would leak nondeterminism into the trace.
        for key in sorted(self._held_by_txn.pop(txn_id, ())):
            state = self._locks[key]
            state.holders.discard(txn_id)
            if not state.holders:
                state.mode = None
            self.metrics.lock_released(self.server, txn_id, key, self.env.now)
            self._promote(key, state)

    def on_crash(self) -> Tuple[int, int]:
        """Crash teardown: the volatile lock table vanishes with the server.

        Every queued wait is failed (so a handler blocked on ``acquire``
        unwinds instead of waiting on an event nobody will ever resolve —
        the leak this method exists to plug: replacing the manager wholesale
        left those events dangling forever) and every granted lock is
        dropped *without* a ``lock.release`` trace — the crash excuse in
        :mod:`repro.verify.conformance` covers them, a release record would
        claim an orderly 2PL release that never happened.

        Returns ``(waits_cancelled, locks_dropped)`` for fault accounting.
        """
        waits_cancelled = 0
        for key in sorted(self._locks):
            state = self._locks[key]
            for entry in state.queue:
                entry.event.fail(DeadlockError(victim=entry.txn_id, cycle=("crashed", key)))
                self.metrics.spans.finish(entry.span, self.env.now, status="crashed")
                waits_cancelled += 1
        locks_dropped = sum(len(keys) for keys in self._held_by_txn.values())
        self._locks.clear()
        self._held_by_txn.clear()
        self._waits_by_txn.clear()
        return waits_cancelled, locks_dropped

    def _promote(self, key: str, state: _LockState) -> None:
        """Grant queued requests FIFO as compatibility allows."""
        while state.queue:
            entry = state.queue[0]
            if entry.txn_id in state.holders:  # upgrade: waits for sole hold
                if len(state.holders) > 1:
                    break
                state.mode = LockMode.EXCLUSIVE
                self.metrics.lock_granted(
                    self.server, entry.txn_id, key, LockMode.EXCLUSIVE, self.env.now
                )
            elif not state.holders or compatible(state.mode, entry.mode):  # type: ignore[arg-type]
                self._grant(state, entry.txn_id, key, entry.mode)
            else:
                break
            state.queue.popleft()
            self._unindex(entry)
            now = self.env.now
            self.metrics.spans.finish(entry.span, now, status="granted")
            self.metrics.lock_wait_resolved(self.server, now - entry.queued_at, now)
            entry.event.succeed((key, entry.mode))

    def _unindex(self, entry: _WaitEntry) -> None:
        waits = self._waits_by_txn[entry.txn_id]
        waits.remove(entry)
        if not waits:
            del self._waits_by_txn[entry.txn_id]

    # -- deadlock detection ------------------------------------------------------

    def _blockers(self, txn_id: str) -> Set[str]:
        """Out-edges of ``txn_id`` in the wait-for graph.

        Each of its queued requests waits for the key's holders and — the
        queue being strictly FIFO — for every request queued ahead of it.
        """
        blockers: Set[str] = set()
        for entry in self._waits_by_txn.get(txn_id, ()):
            state = self._locks[entry.key]
            blockers.update(state.holders)
            for earlier in state.queue:
                if earlier is entry:
                    break
                blockers.add(earlier.txn_id)
        blockers.discard(txn_id)
        return blockers

    def _find_cycle(self, start: str) -> Optional[List[str]]:
        """DFS from ``start`` through the wait-for graph looking for a cycle."""
        path = [start]
        visited = {start}
        # Sorted: neighbour order decides which cycle the DFS reports, and
        # the cycle tuple reaches abort reasons (and thus traces).
        pending = [iter(sorted(self._blockers(start)))]
        while pending:
            for neighbour in pending[-1]:
                if neighbour == start:
                    return path
                if neighbour not in visited:
                    visited.add(neighbour)
                    path.append(neighbour)
                    pending.append(iter(sorted(self._blockers(neighbour))))
                    break
            else:
                pending.pop()
                path.pop()
        return None
