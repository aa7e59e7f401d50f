"""Per-server storage engine with transactional workspaces.

Writes are buffered in a per-transaction :class:`Workspace` and only applied
to committed state at commit time — matching the paper's assumption that
"transactions ... do not externalize any data items to the users until
commit time" (Section III-A).  Reads within a transaction see that
transaction's own buffered writes (read-your-writes inside the workspace).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.db.items import ItemVersion
from repro.errors import StorageError


class AccessKind(enum.Enum):
    """What an access-log record describes."""

    READ = "read"
    WRITE = "write"
    APPLY = "apply"


@dataclass(frozen=True, slots=True)
class AccessRecord:
    """One logged access, ordered by a per-engine sequence number.

    The sequence order is the order the lock manager admitted the
    operations, which is what conflict-serializability checking needs
    (:mod:`repro.db.serializability`).
    """

    sequence: int
    txn_id: str
    key: str
    kind: AccessKind


@dataclass(slots=True)
class Workspace:
    """Uncommitted effects of one transaction on one server."""

    txn_id: str
    reads: Set[str] = field(default_factory=set)
    writes: Dict[str, Any] = field(default_factory=dict)

    @property
    def touched(self) -> Set[str]:
        return self.reads | set(self.writes)


class StorageEngine:
    """Committed key/value state plus in-flight transaction workspaces."""

    def __init__(self, server: str, record_accesses: bool = True) -> None:
        self.server = server
        self._committed: Dict[str, ItemVersion] = {}
        self._workspaces: Dict[str, Workspace] = {}
        #: Ordered access history (reads/writes/applies) for isolation
        #: checking; see :mod:`repro.db.serializability`.  Grows with every
        #: access, so untraced runs — which never replay it — construct
        #: the engine with ``record_accesses=False``.
        self.access_log: List[AccessRecord] = []
        self._record_accesses = record_accesses
        self._sequence = itertools.count()

    # -- bootstrap -------------------------------------------------------------

    def install(self, key: str, value: Any) -> None:
        """Load initial (pre-simulation) committed state."""
        self._committed[key] = ItemVersion(value, committed_by=None, committed_at=0.0)

    def install_many(self, values: Dict[str, Any]) -> None:
        for key, value in values.items():
            self.install(key, value)

    # -- committed-state access ---------------------------------------------------

    def committed_value(self, key: str) -> Any:
        """The committed value of an item (raises on unknown keys)."""
        try:
            return self._committed[key].value
        except KeyError:
            raise StorageError(f"{self.server}: unknown item {key!r}") from None

    def committed_version(self, key: str) -> ItemVersion:
        try:
            return self._committed[key]
        except KeyError:
            raise StorageError(f"{self.server}: unknown item {key!r}") from None

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._committed)

    def snapshot(self) -> Dict[str, Any]:
        """A plain dict of committed values (for assertions and reports)."""
        return {key: version.value for key, version in self._committed.items()}

    def __contains__(self, key: str) -> bool:
        return key in self._committed

    # -- transactional access ------------------------------------------------------

    def workspace(self, txn_id: str) -> Workspace:
        """Get or create the workspace for a transaction."""
        workspace = self._workspaces.get(txn_id)
        if workspace is None:
            workspace = Workspace(txn_id)
            self._workspaces[txn_id] = workspace
        return workspace

    def has_workspace(self, txn_id: str) -> bool:
        return txn_id in self._workspaces

    def read(self, txn_id: str, key: str) -> Any:
        """Transactional read: the transaction's own write, else committed."""
        workspace = self.workspace(txn_id)
        workspace.reads.add(key)
        if self._record_accesses:
            self.access_log.append(
                AccessRecord(next(self._sequence), txn_id, key, AccessKind.READ)
            )
        if key in workspace.writes:
            return workspace.writes[key]
        return self.committed_value(key)

    def write(self, txn_id: str, key: str, value: Any) -> None:
        """Buffer a write; visible only inside this transaction until commit."""
        if key not in self._committed:
            raise StorageError(f"{self.server}: cannot write unknown item {key!r}")
        self.workspace(txn_id).writes[key] = value
        if self._record_accesses:
            self.access_log.append(
                AccessRecord(next(self._sequence), txn_id, key, AccessKind.WRITE)
            )

    def effective_reader(self, txn_id: str) -> Callable[[str], Any]:
        """A ``key -> value`` view: committed state overlaid with the txn's writes.

        Integrity constraints are evaluated against this view at prepare
        time — the post-state the transaction proposes to commit.
        """
        workspace = self.workspace(txn_id)

        def reader(key: str) -> Any:
            if key in workspace.writes:
                return workspace.writes[key]
            return self.committed_value(key)

        return reader

    # -- commit / abort ----------------------------------------------------------

    def apply(self, txn_id: str, committed_at: float) -> Dict[str, Any]:
        """Make a transaction's buffered writes durable.  Returns them."""
        workspace = self._workspaces.pop(txn_id, None)
        if workspace is None:
            return {}
        for key, value in workspace.writes.items():
            self._committed[key] = ItemVersion(value, committed_by=txn_id, committed_at=committed_at)
            if self._record_accesses:
                self.access_log.append(
                    AccessRecord(next(self._sequence), txn_id, key, AccessKind.APPLY)
                )
        return dict(workspace.writes)

    def discard(self, txn_id: str) -> None:
        """Throw away a transaction's workspace (rollback)."""
        self._workspaces.pop(txn_id, None)

    def active_transactions(self) -> Tuple[str, ...]:
        return tuple(self._workspaces)
