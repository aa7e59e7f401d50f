"""Export transaction outcomes for external analysis.

Benches and long simulations produce lists of
:class:`~repro.metrics.stats.TransactionOutcome`; these helpers serialize
them to CSV or JSON so results can be analysed outside the simulator
(pandas, gnuplot, spreadsheets).

When the cluster recorded causal spans (:mod:`repro.obs`), per-phase
latency columns — time in execution, validation, commit, and lock waits —
can ride along: pass ``phase_times`` (the result of
:func:`repro.obs.critical.phase_columns`) to :func:`to_json`/:func:`to_csv`.
Rows of unsampled transactions carry ``None``/empty in those columns.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO

from repro.metrics.stats import TransactionOutcome

#: Per-phase latency columns, filled from span data when available.  The
#: names match :data:`repro.obs.critical.PHASE_COLUMN_NAMES`.
PHASE_FIELDS = (
    "execution_time",
    "validation_time",
    "commit_time",
    "lock_wait_time",
)

#: Column order of the CSV/JSON export.
FIELDS = (
    "txn_id",
    "approach",
    "consistency",
    "committed",
    "abort_reason",
    "started_at",
    "execution_done_at",
    "finished_at",
    "latency",
    "queries_total",
    "queries_executed",
    "participants",
    "voting_rounds",
    "commit_rounds",
    "protocol_messages",
    "proof_evaluations",
) + PHASE_FIELDS


def outcome_to_dict(
    outcome: TransactionOutcome,
    phases: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Flatten one outcome into plain JSON-serializable values.

    ``phases`` maps phase-column names to times for this transaction
    (absent columns export as ``None``).
    """
    row = {
        "txn_id": outcome.txn_id,
        "approach": outcome.approach,
        "consistency": outcome.consistency,
        "committed": outcome.committed,
        "abort_reason": outcome.abort_reason.value if outcome.abort_reason else None,
        "started_at": outcome.started_at,
        "execution_done_at": outcome.execution_done_at,
        "finished_at": outcome.finished_at,
        "latency": outcome.latency,
        "queries_total": outcome.queries_total,
        "queries_executed": outcome.queries_executed,
        "participants": outcome.participants,
        "voting_rounds": outcome.voting_rounds,
        "commit_rounds": outcome.commit_rounds,
        "protocol_messages": outcome.protocol_messages,
        "proof_evaluations": outcome.proof_evaluations,
    }
    for name in PHASE_FIELDS:
        row[name] = phases.get(name) if phases is not None else None
    return row


def _phases_for(
    phase_times: Optional[Mapping[str, Mapping[str, float]]],
    txn_id: str,
) -> Optional[Mapping[str, float]]:
    if phase_times is None:
        return None
    return phase_times.get(txn_id)


def to_json(
    outcomes: Iterable[TransactionOutcome],
    stream: Optional[TextIO] = None,
    indent: int = 2,
    phase_times: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """Serialize outcomes as a JSON array; returns the text.

    ``phase_times`` maps txn id → phase-column dict (see
    :func:`repro.obs.critical.phase_columns`).
    """
    text = json.dumps(
        [outcome_to_dict(o, _phases_for(phase_times, o.txn_id)) for o in outcomes],
        indent=indent,
    )
    if stream is not None:
        stream.write(text)
    return text


def to_csv(
    outcomes: Iterable[TransactionOutcome],
    stream: Optional[TextIO] = None,
    phase_times: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """Serialize outcomes as CSV with a header row; returns the text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(FIELDS))
    writer.writeheader()
    for outcome in outcomes:
        writer.writerow(outcome_to_dict(outcome, _phases_for(phase_times, outcome.txn_id)))
    text = buffer.getvalue()
    if stream is not None:
        stream.write(text)
    return text


def from_json(text: str) -> List[Dict[str, Any]]:
    """Load an exported JSON array back into dicts (round-trip helper)."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of outcomes")
    return data
