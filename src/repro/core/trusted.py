"""Trusted and safe transactions (Definition 4 and Section III-B).

A transaction is **trusted** iff every proof of authorization in its view
evaluates to true at some instant within [α(T), ω(T)] *and* the view is φ-
or ψ-consistent.  A **safe** transaction is trusted *and* satisfies the
data integrity constraints; safe transactions commit, unsafe ones roll
back.

These predicates are *checkers* applied to a finished transaction's
recorded view — the tests use them as the ground-truth oracle to confirm
that 2PVC only ever commits safe transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.consistency import ConsistencyLevel, is_consistent
from repro.policy.policy import PolicyId
from repro.policy.proofs import ProofOfAuthorization


@dataclass(frozen=True)
class TrustReport:
    """Outcome of the trusted-transaction predicate with diagnostics."""

    trusted: bool
    all_granted: bool
    consistent: bool
    within_window: bool
    failures: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.trusted


def check_trusted(
    proofs: Sequence[ProofOfAuthorization],
    level: ConsistencyLevel,
    alpha: float,
    omega: float,
    latest_versions: Optional[Mapping[PolicyId, int]] = None,
) -> TrustReport:
    """Definition 4 over a set of proofs (typically the final view).

    ``alpha``/``omega`` are the transaction's start and commit-readiness
    times; every proof must have been evaluated inside that window with a
    true verdict, under a consistent set of policy versions.
    """
    failures: List[str] = []
    all_granted = True
    within_window = True
    for proof in proofs:
        if not proof.granted:
            all_granted = False
            failures.append(f"{proof.query_id}@{proof.server}: denied ({proof.reason})")
        if not (alpha <= proof.evaluated_at <= omega):
            within_window = False
            failures.append(
                f"{proof.query_id}@{proof.server}: evaluated at {proof.evaluated_at} "
                f"outside [{alpha}, {omega}]"
            )
    consistent = is_consistent(proofs, level, latest_versions or {})
    if not consistent:
        failures.append(f"view is not {level.value}-consistent")
    trusted = all_granted and consistent and within_window and bool(proofs)
    if not proofs:
        failures.append("empty view")
    return TrustReport(trusted, all_granted, consistent, within_window, tuple(failures))


def check_safe(
    proofs: Sequence[ProofOfAuthorization],
    level: ConsistencyLevel,
    alpha: float,
    omega: float,
    integrity_ok: bool,
    latest_versions: Optional[Mapping[PolicyId, int]] = None,
) -> Tuple[bool, TrustReport]:
    """Safe = trusted + integrity constraints satisfied (Section III-B)."""
    report = check_trusted(proofs, level, alpha, omega, latest_versions)
    return (report.trusted and integrity_ok, report)
