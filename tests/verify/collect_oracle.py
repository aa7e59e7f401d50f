"""The evidence order's reference implementation (the oracle, not a path).

This is the event-collecting half of :func:`repro.verify.events.collect_run`
as it stood before PR 18: every piece of evidence becomes a raw 4-tuple, the
raw list is enumerated, and the pairs are sorted by ``(time, or infinity when
there is none; position in the raw list)`` through a Python key function.  It
is kept verbatim because it states the order plainly — time first, then trace
before WAL, WALs server by server and then coordinator by coordinator, each in
its own recording order, and the untimed storage accesses last —
and ``test_collect_oracle.py`` requires ``collect_run`` to reproduce it event
for event: ids, times, sources, categories, data.

Do not optimize this module.  Its value is being boring.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.verify.events import (
    CAT_STORAGE,
    CAT_WAL,
    SOURCE_STORAGE,
    SOURCE_TRACE,
    SOURCE_WAL,
    VerifyEvent,
    _normalize_versions,
)


def _sort_key(entry: Tuple[Optional[float], int]) -> Tuple[float, int]:
    time, tiebreak = entry
    return (math.inf if time is None else time, tiebreak)


def reference_events(cluster: Any) -> List[VerifyEvent]:
    """The events of a finished cluster, in the order the checker numbers them."""
    raw: List[Tuple[Optional[float], str, str, Tuple[Tuple[str, Any], ...]]] = []

    for record in cluster.tracer:
        raw.append((record.time, SOURCE_TRACE, record.category, record.details))

    wal_nodes = list(cluster.servers.values()) + list(cluster.tms)
    for node in wal_nodes:
        for log_record in node.wal.records():
            data: Dict[str, Any] = {
                "node": node.name,
                "record_type": log_record.record_type.value,
                "txn_id": log_record.txn_id,
                "forced": log_record.forced,
                "lsn": log_record.lsn,
            }
            for key, value in log_record.payload:
                if key == "versions":
                    value = _normalize_versions(value)
                data.setdefault(key, value)
            raw.append(
                (log_record.written_at, SOURCE_WAL, CAT_WAL, tuple(sorted(data.items())))
            )

    for server in cluster.servers.values():
        for access in server.storage.access_log:
            data = {
                "server": server.name,
                "txn_id": access.txn_id,
                "key": access.key,
                "kind": access.kind.value,
                "sequence": access.sequence,
            }
            # Storage accesses carry no timestamp — only per-engine order.
            raw.append((None, SOURCE_STORAGE, CAT_STORAGE, tuple(sorted(data.items()))))

    indexed = sorted(enumerate(raw), key=lambda pair: _sort_key((pair[1][0], pair[0])))
    return [
        VerifyEvent(event_id, time, source, category, data)
        for event_id, (_, (time, source, category, data)) in enumerate(indexed)
    ]
