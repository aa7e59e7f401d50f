"""Conflict-serializability checking over recorded access histories.

Strict two-phase locking guarantees conflict-serializable (indeed strict)
schedules; this module *verifies* that guarantee instead of assuming it.
Each :class:`~repro.db.storage.StorageEngine` records an ordered access
log (reads, writes, applies); :func:`build_conflict_graph` derives the
precedence relation between committed transactions (write-write,
write-read, read-write conflicts per item), and
:func:`check_conflict_serializable` asserts the graph is acyclic —
exhibiting the offending cycle when it is not.

Used by the concurrency tests as an isolation oracle: whatever the
workload, the committed schedule must be equivalent to some serial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.db.storage import AccessKind, StorageEngine


@dataclass(frozen=True)
class ConflictEdge:
    """``earlier`` must precede ``later`` in any equivalent serial order."""

    earlier: str
    later: str
    item: str
    kind: str  # "ww" | "wr" | "rw"


def _conflicts(first: AccessKind, second: AccessKind) -> Optional[str]:
    if first is AccessKind.WRITE and second is AccessKind.WRITE:
        return "ww"
    if first is AccessKind.WRITE and second is AccessKind.READ:
        return "wr"
    if first is AccessKind.READ and second is AccessKind.WRITE:
        return "rw"
    return None


def conflict_edges_from_histories(
    histories: Iterable[Sequence[Tuple[str, str, str]]],
    committed: Set[str],
) -> List[ConflictEdge]:
    """Conflict edges from plain access histories.

    Each history is one engine's ordered accesses as ``(txn_id, item,
    kind)`` tuples with kind ``"read"``/``"write"`` (anything else, e.g.
    ``"apply"``, is skipped).  This is the representation-independent core
    of :func:`build_conflict_graph` — the trace sanitizer feeds it access
    events reconstructed (and possibly corrupted) from a recorded run.
    """
    edges: List[ConflictEdge] = []
    seen: Set[Tuple[str, str, str, str]] = set()
    for history in histories:
        per_item: Dict[str, List[Tuple[str, AccessKind]]] = {}
        for txn_id, item, kind_name in history:
            if kind_name not in (AccessKind.READ.value, AccessKind.WRITE.value):
                continue
            if txn_id not in committed:
                continue
            per_item.setdefault(item, []).append((txn_id, AccessKind(kind_name)))
        for item, accesses in per_item.items():
            for index, (first_txn, first_kind) in enumerate(accesses):
                for second_txn, second_kind in accesses[index + 1 :]:
                    if first_txn == second_txn:
                        continue
                    kind = _conflicts(first_kind, second_kind)
                    if kind is None:
                        continue
                    key = (first_txn, second_txn, item, kind)
                    if key not in seen:
                        seen.add(key)
                        edges.append(ConflictEdge(first_txn, second_txn, item, kind))
    return edges


def build_conflict_graph(
    engines: Iterable[StorageEngine],
    committed: Set[str],
) -> List[ConflictEdge]:
    """Conflict edges between committed transactions, across all engines.

    Only workspace-level reads and writes participate (the ``APPLY``
    records mark commit points but conflicts are defined on the data
    accesses themselves, whose order the lock manager controlled).
    """
    histories = [
        [(record.txn_id, record.key, record.kind.value) for record in engine.access_log]
        for engine in engines
    ]
    return conflict_edges_from_histories(histories, committed)


def find_cycle(edges: Sequence[ConflictEdge]) -> Optional[List[str]]:
    """A cycle in the precedence graph, or ``None`` if it is a DAG."""
    adjacency: Dict[str, Set[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge.earlier, set()).add(edge.later)
        adjacency.setdefault(edge.later, set())

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in adjacency}
    # Depth-first search on an explicit stack (one neighbour iterator per
    # node of ``path``): precedence chains are as long as the trace, far
    # past the interpreter's recursion limit.
    path: List[str] = []
    stack: List[Iterator[str]] = []
    for root in adjacency:
        if colour[root] is not WHITE:
            continue
        colour[root] = GREY
        path.append(root)
        # Sorted: which cycle gets reported must not depend on set order.
        stack.append(iter(sorted(adjacency[root])))
        while stack:
            for neighbour in stack[-1]:
                if colour[neighbour] is GREY:
                    return path[path.index(neighbour) :] + [neighbour]
                if colour[neighbour] is WHITE:
                    colour[neighbour] = GREY
                    path.append(neighbour)
                    stack.append(iter(sorted(adjacency[neighbour])))
                    break
            else:
                stack.pop()
                colour[path.pop()] = BLACK
    return None


def check_conflict_serializable(
    engines: Iterable[StorageEngine],
    committed: Iterable[str],
) -> Tuple[bool, Optional[List[str]], List[ConflictEdge]]:
    """Verify the committed schedule is conflict-serializable.

    Returns ``(ok, cycle_or_None, edges)``.
    """
    edges = build_conflict_graph(engines, set(committed))
    cycle = find_cycle(edges)
    return (cycle is None, cycle, edges)


def serial_order(edges: Sequence[ConflictEdge]) -> List[str]:
    """A topological (equivalent serial) order; raises on cycles."""
    adjacency: Dict[str, Set[str]] = {}
    indegree: Dict[str, int] = {}
    for edge in edges:
        adjacency.setdefault(edge.earlier, set())
        adjacency.setdefault(edge.later, set())
        if edge.later not in adjacency[edge.earlier]:
            adjacency[edge.earlier].add(edge.later)
            indegree[edge.later] = indegree.get(edge.later, 0) + 1
        indegree.setdefault(edge.earlier, indegree.get(edge.earlier, 0))
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for neighbour in sorted(adjacency[node]):
            indegree[neighbour] -= 1
            if indegree[neighbour] == 0:
                ready.append(neighbour)
    if len(order) != len(adjacency):
        raise ValueError("conflict graph has a cycle; no serial order exists")
    return order
