"""The lock manager's reference implementation (the oracle, not a path).

This is :class:`repro.db.locks.LockManager` as it stood before the wait
index: every queued request rebuilds the wait-for graph of the whole table
(:meth:`ReferenceLockManager._wait_for_edges`, quadratic in each queue) and
searches it with a recursive DFS, and every ``release_all`` scans every
queue of every key.  It is kept verbatim because it states the semantics
plainly — who blocks whom, which cycle the search reports, in which order
cancelled waits fail — and ``test_locks_oracle.py`` requires the indexed
manager to reproduce all of it on random schedules.

Do not optimize this module.  Its value is being boring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.db.locks import LockMode, compatible
from repro.errors import DeadlockError
from repro.obs.spans import KIND_LOCK, NULL_RECORDER, ParentRef, Span, SpanRecorder
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.tracing import LOCK_GRANT, LOCK_RELEASE, Tracer


@dataclass
class _WaitEntry:
    txn_id: str
    mode: LockMode
    event: Event
    #: Open ``lock.wait`` span, finished when the wait resolves (grant,
    #: deadlock victim, or cancellation by a global abort).
    span: Optional[Span] = None
    #: Simulation time the request queued, for wait-duration telemetry.
    queued_at: float = 0.0


@dataclass
class _LockState:
    mode: Optional[LockMode] = None
    holders: Set[str] = field(default_factory=set)
    queue: List[_WaitEntry] = field(default_factory=list)


class ReferenceLockManager:
    """The lock table with a full-table wait-for graph and release scan."""

    def __init__(
        self,
        env: Environment,
        server: str = "?",
        tracer: Optional[Tracer] = None,
        obs: Optional[SpanRecorder] = None,
        on_wait: Optional[Callable[[float, float], None]] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.tracer = tracer
        self.obs = obs if obs is not None else NULL_RECORDER
        #: ``on_wait(waited, now)`` fires when a *queued* request is
        #: granted (immediate grants never call it) — the live-telemetry
        #: lock-wait feed.  Host-side only; never consumes simulated time.
        self.on_wait = on_wait
        self._locks: Dict[str, _LockState] = {}
        #: Keys held per transaction, for O(1) release.
        self._held_by_txn: Dict[str, Set[str]] = {}

    def _trace(self, category: str, txn_id: str, key: str, mode: Optional[LockMode]) -> None:
        # The enabled check lives here, not in record(): grants/releases
        # fire per lock per transaction, and an untraced run should not pay
        # for the details dict either.
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(
                self.env.now,
                category,
                server=self.server,
                txn_id=txn_id,
                key=key,
                mode=mode.value if mode is not None else None,
            )

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
        state = self._locks.setdefault(key, _LockState())

        if txn_id in state.holders:
            if state.mode is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                event.succeed((key, mode))
                return event
            if len(state.holders) == 1:  # sole-holder upgrade
                state.mode = LockMode.EXCLUSIVE
                self._trace(LOCK_GRANT, txn_id, key, LockMode.EXCLUSIVE)
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
        self._trace(LOCK_GRANT, txn_id, key, mode)

    def _enqueue(
        self,
        state: _LockState,
        txn_id: str,
        key: str,
        mode: LockMode,
        event: Event,
        parent: ParentRef = None,
    ) -> None:
        entry = _WaitEntry(txn_id, mode, event, queued_at=self.env.now)
        state.queue.append(entry)
        cycle = self._find_cycle(txn_id)
        if cycle is not None:
            state.queue.remove(entry)
            event.fail(DeadlockError(victim=txn_id, cycle=tuple(cycle)))
            return
        entry.span = self.obs.start(
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
        for key, state in self._locks.items():
            for entry in state.queue:
                if entry.txn_id == txn_id and not entry.event.triggered:
                    entry.event.fail(
                        DeadlockError(victim=txn_id, cycle=("cancelled", key))
                    )
                    self.obs.finish(entry.span, self.env.now, status="cancelled")
            state.queue[:] = [
                entry
                for entry in state.queue
                if entry.txn_id != txn_id or entry.event.processed
            ]
        # Sorted: the pop order of a set of keys is hash-randomized across
        # interpreter runs, and it decides which queued waiter is promoted
        # first — which would leak nondeterminism into the trace.
        for key in sorted(self._held_by_txn.pop(txn_id, ())):
            state = self._locks[key]
            state.holders.discard(txn_id)
            if not state.holders:
                state.mode = None
            self._trace(LOCK_RELEASE, txn_id, key, None)
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
                if not entry.event.triggered:
                    entry.event.fail(
                        DeadlockError(victim=entry.txn_id, cycle=("crashed", key))
                    )
                    self.obs.finish(entry.span, self.env.now, status="crashed")
                    waits_cancelled += 1
        locks_dropped = sum(len(keys) for keys in self._held_by_txn.values())
        self._locks.clear()
        self._held_by_txn.clear()
        return waits_cancelled, locks_dropped

    def _promote(self, key: str, state: _LockState) -> None:
        """Grant queued requests FIFO as compatibility allows."""
        while state.queue:
            entry = state.queue[0]
            if entry.event.triggered:  # cancelled (e.g. deadlock victim)
                state.queue.pop(0)
                continue
            upgrade = entry.txn_id in state.holders
            if upgrade:
                if len(state.holders) == 1:
                    state.mode = LockMode.EXCLUSIVE
                    state.queue.pop(0)
                    self._trace(LOCK_GRANT, entry.txn_id, key, LockMode.EXCLUSIVE)
                    self.obs.finish(entry.span, self.env.now, status="granted")
                    if self.on_wait is not None:
                        self.on_wait(self.env.now - entry.queued_at, self.env.now)
                    entry.event.succeed((key, entry.mode))
                    continue
                break
            if not state.holders or compatible(state.mode, entry.mode):  # type: ignore[arg-type]
                self._grant(state, entry.txn_id, key, entry.mode)
                state.queue.pop(0)
                self.obs.finish(entry.span, self.env.now, status="granted")
                if self.on_wait is not None:
                    self.on_wait(self.env.now - entry.queued_at, self.env.now)
                entry.event.succeed((key, entry.mode))
                continue
            break

    # -- deadlock detection ------------------------------------------------------

    def _wait_for_edges(self) -> Dict[str, Set[str]]:
        """Edges waiter → holder and waiter → every live request ahead of it.

        ``acquire`` and ``_promote`` are strictly FIFO, so an earlier waiter
        blocks a later one whether or not their modes are compatible.
        """
        edges: Dict[str, Set[str]] = {}
        for state in self._locks.values():
            for position, entry in enumerate(state.queue):
                if entry.event.triggered:
                    continue
                blockers = {holder for holder in state.holders if holder != entry.txn_id}
                for earlier in state.queue[:position]:
                    if not earlier.event.triggered and earlier.txn_id != entry.txn_id:
                        blockers.add(earlier.txn_id)
                if blockers:
                    edges.setdefault(entry.txn_id, set()).update(blockers)
        return edges

    def _find_cycle(self, start: str) -> Optional[List[str]]:
        """DFS from ``start`` through the wait-for graph looking for a cycle."""
        edges = self._wait_for_edges()
        path: List[str] = []
        visited: Set[str] = set()

        def dfs(node: str) -> Optional[List[str]]:
            if node == start and path:
                return list(path)
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            # Sorted: neighbour order decides which cycle the DFS reports,
            # and the cycle tuple reaches abort reasons (and thus traces).
            for neighbour in sorted(edges.get(node, ())):
                found = dfs(neighbour)
                if found is not None:
                    return found
            path.pop()
            return None

        return dfs(start)
