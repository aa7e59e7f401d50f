"""Policy-consistency predicates (Definitions 1–3, 7 of the paper).

A transaction's *view* is the set of proofs of authorization evaluated
during its lifetime (Def. 1).  A view is **φ-consistent** (view consistent,
Def. 2) when, per administrative domain, every proof used the same policy
version; it is **ψ-consistent** (global consistent, Def. 3) when every
proof used the *latest* version the administrator has published.  A *view
instance* (Def. 7) is the prefix of the view up to a time instant, used by
Incremental Punctual.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Set

from repro.policy.policy import PolicyId
from repro.policy.proofs import ProofOfAuthorization


class ConsistencyLevel(enum.Enum):
    """Which consistency predicate a transaction enforces."""

    VIEW = "view"      # φ-consistency (Definition 2)
    GLOBAL = "global"  # ψ-consistency (Definition 3)


def versions_by_admin(
    proofs: Iterable[ProofOfAuthorization],
) -> Dict[PolicyId, Set[int]]:
    """Distinct policy versions observed per administrative domain."""
    observed: Dict[PolicyId, Set[int]] = {}
    for proof in proofs:
        observed.setdefault(proof.policy_id, set()).add(proof.policy_version)
    return observed


def phi_consistent(proofs: Iterable[ProofOfAuthorization]) -> bool:
    """Definition 2: per admin domain, all proofs used one policy version.

    ``φ-consistent(V^T) ↔ ∀i,j : ver(P_si) = ver(P_sj)`` for policies of the
    same administrator A.
    """
    return all(len(versions) <= 1 for versions in versions_by_admin(proofs).values())


def psi_consistent(
    proofs: Iterable[ProofOfAuthorization],
    latest_versions: Mapping[PolicyId, int],
) -> bool:
    """Definition 3: every proof used the administrator's latest version.

    ``ψ-consistent(V^T) ↔ ∀i : ver(P_si) = ver(P)`` where ``ver(P)`` is the
    latest policy version per administrative domain (``latest_versions``,
    typically obtained from the master version service).
    """
    proofs = list(proofs)
    for proof in proofs:
        latest = latest_versions.get(proof.policy_id)
        if latest is None or proof.policy_version != latest:
            return False
    return True


def is_consistent(
    proofs: Iterable[ProofOfAuthorization],
    level: ConsistencyLevel,
    latest_versions: Mapping[PolicyId, int] = (),
) -> bool:
    """Dispatch on the consistency level (φ for VIEW, ψ for GLOBAL)."""
    if level is ConsistencyLevel.VIEW:
        return phi_consistent(proofs)
    return psi_consistent(proofs, dict(latest_versions))


def view_instance(
    proofs: Iterable[ProofOfAuthorization], instant: float
) -> List[ProofOfAuthorization]:
    """Definition 7: proofs evaluated up to (and including) ``instant``."""
    return [proof for proof in proofs if proof.evaluated_at <= instant]


def stale_servers(
    versions_seen: Mapping[PolicyId, Mapping[str, int]],
    targets: Mapping[PolicyId, int],
) -> List[str]:
    """Servers whose reported version is behind the target, any domain."""
    behind: List[str] = []
    for policy_id, target in targets.items():
        for server, version in versions_seen.get(policy_id, {}).items():
            if version < target and server not in behind:
                behind.append(server)
    return behind
