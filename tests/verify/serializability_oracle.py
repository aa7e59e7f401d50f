"""The serializability check's reference implementation (the oracle, not a path).

This is :func:`repro.verify.conformance.check_serializability` as it stood
before it read the transaction views: one scan over every event of the run
for its storage accesses, grouped by server, each server's history sorted by
``sequence`` through ``VerifyEvent.get``, and the conflict edges derived
through :class:`~repro.db.storage.AccessKind` members as
:func:`repro.db.serializability.conflict_edges_from_histories` derived them
before it compared kind names.  ``test_serializability_oracle.py``
requires the checker to report exactly what this reports — code, transaction,
message, evidence event ids and their order — on recorded chaos worlds and on
every record the mutation suite builds.

Do not optimize this module.  Its value is being boring.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.db.serializability import ConflictEdge, find_cycle
from repro.db.storage import AccessKind
from repro.verify import report as rep
from repro.verify.events import CAT_STORAGE, RunRecord, VerifyEvent
from repro.verify.report import Violation, make_violation


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


def reference_check_serializability(run: RunRecord, views: Dict[str, object]) -> List[Violation]:
    committed = {txn_id for txn_id, view in views.items() if view.committed}
    per_server: Dict[str, List[VerifyEvent]] = defaultdict(list)
    for event in run.events:
        if event.category == CAT_STORAGE:
            per_server[event.get("server")].append(event)
    histories = []
    for server in sorted(per_server):
        ordered = sorted(per_server[server], key=lambda event: event.get("sequence"))
        histories.append(
            [(event.get("txn_id"), event.get("key"), event.get("kind")) for event in ordered]
        )
    edges = conflict_edges_from_histories(histories, committed)
    cycle = find_cycle(edges)
    if cycle is None:
        return []
    members = set(cycle)
    evidence = [
        event
        for server in sorted(per_server)
        for event in per_server[server]
        if event.get("txn_id") in members and event.get("kind") != "apply"
    ]
    return [
        make_violation(
            rep.SERIALIZABILITY_CYCLE,
            cycle[0],
            "committed schedule is not conflict-serializable: cycle "
            + " -> ".join(cycle),
            evidence[:12],
        )
    ]
