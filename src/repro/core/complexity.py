"""Closed-form complexity of each approach — the paper's Table I.

Formulas give the **maximum** number of protocol messages and proof
evaluations per approach × consistency level, parameterized by:

* ``n`` — participants in the commit decision,
* ``u`` — queries in the transaction,
* ``r`` — voting/collection rounds (``r ≤ 2`` under view consistency;
  unbounded under global consistency with per-round master fetches).

Log complexity is 2n + 1 forced writes for both 2PC and 2PVC.

The benches drive the simulator into the worst-case regimes and compare the
measured counters against these bounds (see EXPERIMENTS.md for where bounds
are tight versus slack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.consistency import ConsistencyLevel

@dataclass(frozen=True)
class ComplexityEntry:
    """One cell pair of Table I: message and proof formulas plus their text."""

    messages: Callable[[int, int, int], int]
    proofs: Callable[[int, int, int], int]
    messages_text: str
    proofs_text: str


def _table() -> Dict[Tuple[str, ConsistencyLevel], ComplexityEntry]:
    VIEW, GLOBAL = ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL
    return {
        ("deferred", VIEW): ComplexityEntry(
            lambda n, u, r: 2 * n + 4 * n,
            lambda n, u, r: 2 * u - 1,
            "2n + 4n",
            "2u - 1",
        ),
        ("deferred", GLOBAL): ComplexityEntry(
            lambda n, u, r: 2 * n + 2 * n * r + r,
            lambda n, u, r: u * r,
            "2n + 2nr + r",
            "ur",
        ),
        ("punctual", VIEW): ComplexityEntry(
            lambda n, u, r: 2 * n + 4 * n,
            lambda n, u, r: u + 2 * u - 1,
            "2n + 4n",
            "u + 2u - 1",
        ),
        ("punctual", GLOBAL): ComplexityEntry(
            lambda n, u, r: 2 * n + 2 * n * r + r,
            lambda n, u, r: u + u * r,
            "2n + 2nr + r",
            "u + ur",
        ),
        ("incremental", VIEW): ComplexityEntry(
            lambda n, u, r: 4 * n,
            lambda n, u, r: u,
            "4n",
            "u",
        ),
        ("incremental", GLOBAL): ComplexityEntry(
            lambda n, u, r: 4 * n + u,
            lambda n, u, r: u,
            "4n + u",
            "u",
        ),
        ("continuous", VIEW): ComplexityEntry(
            lambda n, u, r: u * (u + 1) + 4 * n,
            lambda n, u, r: u * (u + 1) // 2,
            "u(u+1) + 4n",
            "u(u+1)/2",
        ),
        ("continuous", GLOBAL): ComplexityEntry(
            lambda n, u, r: u * (u + 1) + u + 2 * n + 2 * n * r + r,
            lambda n, u, r: u * (u + 1) // 2 + u * r,
            "u(u+1) + u + 2n + 2nr + r",
            "u(u+1)/2 + ur",
        ),
    }


TABLE1: Dict[Tuple[str, ConsistencyLevel], ComplexityEntry] = _table()


def max_messages(approach: str, level: ConsistencyLevel, n: int, u: int, r: int) -> int:
    """Table I message bound for the given parameters."""
    return TABLE1[(approach, level)].messages(n, u, r)


def max_proofs(approach: str, level: ConsistencyLevel, n: int, u: int, r: int) -> int:
    """Table I proof-evaluation bound for the given parameters."""
    return TABLE1[(approach, level)].proofs(n, u, r)


def log_complexity(n: int) -> int:
    """Forced log writes of 2PC and 2PVC: 2n + 1 (Section VI-A)."""
    return 2 * n + 1
