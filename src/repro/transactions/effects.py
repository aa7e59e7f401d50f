"""Protocol effects shared by coordinator and participant, each written once.

Both sides of 2PC / 2PV / 2PVC do the same two things around their message
exchanges: force a record to the write-ahead log, and repeat a request that
timed out.  The generators here are reached with ``yield from`` from the
protocol code (they start no process and create no event of their own, so
the kernel's event order is exactly that of the inlined code they replace);
``node`` is any :class:`~repro.sim.network.Node` with a ``wal`` and the
``metrics`` handle — a cloud server or a transaction manager.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple, Type, Union

from repro.cloud.messages import rpc_backoff
from repro.db.wal import LogRecordType
from repro.obs.spans import KIND_LOG, ParentRef
from repro.sim.events import Event
from repro.sim.network import Message

#: Simulated time of one forced log write.
LOG_FORCE_TIME = 0.1


def force_log(
    node: Any,
    record_type: LogRecordType,
    txn_id: str,
    parent: ParentRef = None,
    payload: Optional[Callable[[], Dict[str, Any]]] = None,
) -> Generator[Event, Any, bool]:
    """Force one record to ``node``'s log; returns whether it became durable.

    The write takes :data:`LOG_FORCE_TIME`.  A node that went down in the
    meantime has written nothing: no record, ``False``, and the ``log.force``
    span (opened under ``parent``, if any) is left without its ``record``
    attribute.  The caller must then fall silent — whatever the record would
    have vouched for (a vote, a decision) did not happen.  ``payload`` builds
    the record's fields at the instant of the write, not when it starts: the
    record describes the node as it is when the record becomes durable.
    """
    spans = node.metrics.spans
    span = (
        spans.start(txn_id, "log.force", KIND_LOG, node.name, node.env.now, parent=parent)
        if parent is not None
        else None
    )
    yield node.env.timeout(LOG_FORCE_TIME)
    if node.is_down:
        return False
    node.wal.force(record_type, txn_id, node.env.now, **(payload() if payload else {}))
    spans.finish(span, node.env.now, record=record_type.value)
    return True


def request_with_retry(
    node: Any,
    retries: int,
    retry_on: Union[Type[BaseException], Tuple[Type[BaseException], ...]],
    dst: str,
    kind: str,
    category: str,
    timeout: Optional[float] = None,
    span: Any = None,
    **payload: Any,
) -> Generator[Event, Any, Message]:
    """``node.request`` repeated up to ``retries`` times after a ``retry_on`` failure.

    Retry *n* (1-based) waits :func:`~repro.cloud.messages.rpc_backoff`\\ ``(n)``
    first and counts in ``faults.retries``; once the budget is spent the last
    failure propagates unchanged.  Safe because receivers deduplicate re-sent
    EXECUTE / PREPARE / DECISION messages and inquiries are idempotent.
    """
    attempts = 0
    while True:
        try:
            reply = yield node.request(dst, kind, category, timeout=timeout, span=span, **payload)
            return reply
        except retry_on:
            attempts += 1
            if attempts > retries:
                raise
            node.metrics.faults.on_retry()
            yield node.env.timeout(rpc_backoff(attempts))
