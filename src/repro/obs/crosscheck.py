"""Cross-validation of span trees against independent run evidence.

Spans and the :class:`~repro.sim.tracing.Tracer` record the same run from
two different vantage points — the span recorder follows causal parent
links, the tracer logs flat timestamped facts.  Agreement between them is
cheap to check and catches instrumentation drift (a phase span that no
longer covers the transaction window, a proof evaluation that stopped
emitting its span) that neither side can detect alone.  ``repro.verify``
plays the same role for protocol conformance; this module is its
observability counterpart and is wired into the obs test suite.

Checked per *sampled* transaction:

* the root span's window equals the tracer's ``txn.start``/``txn.done``
  pair;
* the number of ``proof`` spans equals the number of ``proof.eval`` trace
  records;
* per request kind that the coordinator always instruments, the number of
  ``rpc.<kind>`` spans equals the number of ``net.send`` records
  (``DECISION`` is excluded: no-ack variants broadcast decisions as plain
  sends, which never open RPC spans).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cloud import messages as msg
from repro.obs.spans import KIND_PROOF, KIND_RPC, SpanRecorder
from repro.sim.tracing import NET_SEND, PROOF_EVAL, TXN_DONE, TXN_START, Tracer

#: Request kinds the coordinator always sends with a span attached.
CHECKED_RPC_KINDS = (
    msg.EXECUTE_QUERY,
    msg.PREPARE_TO_VALIDATE,
    msg.PREPARE_TO_COMMIT,
    msg.POLICY_UPDATE,
    msg.MASTER_VERSION_QUERY,
)


def crosscheck_spans(
    recorder: SpanRecorder,
    tracer: Tracer,
    tolerance: float = 1e-9,
) -> List[str]:
    """Discrepancies between span trees and trace evidence (empty == agree)."""
    problems: List[str] = []
    starts: Dict[str, float] = {}
    dones: Dict[str, float] = {}
    proof_counts: Dict[str, int] = {}
    send_counts: Dict[str, Dict[str, int]] = {}
    for record in tracer:
        txn_id = record.get("txn_id")
        if txn_id is None:
            continue
        if record.category == TXN_START:
            starts[txn_id] = record.time
        elif record.category == TXN_DONE:
            dones[txn_id] = record.time
        elif record.category == PROOF_EVAL:
            proof_counts[txn_id] = proof_counts.get(txn_id, 0) + 1
        elif record.category == NET_SEND:
            kind = record.get("kind")
            if kind in CHECKED_RPC_KINDS:
                per_kind = send_counts.setdefault(txn_id, {})
                per_kind[kind] = per_kind.get(kind, 0) + 1

    for trace_id in recorder.traces():
        tree = recorder.tree(trace_id)
        root = tree.root
        if root is None:
            problems.append(f"{trace_id}: sampled trace has no root span")
            continue

        started = starts.get(trace_id)
        done = dones.get(trace_id)
        if started is None or done is None:
            problems.append(f"{trace_id}: tracer never recorded the txn window")
        else:
            if abs(root.start - started) > tolerance:
                problems.append(
                    f"{trace_id}: root span starts at {root.start}, "
                    f"tracer says {started}"
                )
            if root.end is None or abs(root.end - done) > tolerance:
                problems.append(
                    f"{trace_id}: root span ends at {root.end}, tracer says {done}"
                )

        spans = recorder.spans(trace_id)
        span_proofs = sum(1 for span in spans if span.kind == KIND_PROOF)
        trace_proofs = proof_counts.get(trace_id, 0)
        if span_proofs != trace_proofs:
            problems.append(
                f"{trace_id}: {span_proofs} proof spans vs "
                f"{trace_proofs} proof.eval trace records"
            )

        rpc_by_kind: Dict[str, int] = {}
        for span in spans:
            if span.kind == KIND_RPC and span.name.startswith("rpc."):
                kind = span.name[len("rpc."):]
                if kind in CHECKED_RPC_KINDS:
                    rpc_by_kind[kind] = rpc_by_kind.get(kind, 0) + 1
        sent = send_counts.get(trace_id, {})
        for kind in CHECKED_RPC_KINDS:
            if rpc_by_kind.get(kind, 0) != sent.get(kind, 0):
                problems.append(
                    f"{trace_id}: {rpc_by_kind.get(kind, 0)} rpc.{kind} spans vs "
                    f"{sent.get(kind, 0)} net.send records"
                )
    return problems
