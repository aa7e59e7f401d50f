"""The paper's contribution: consistency levels, approaches, 2PV and 2PVC.

* :mod:`repro.core.consistency` — φ/ψ predicates, views (Defs 1–3, 7).
* :mod:`repro.core.trusted` — trusted/safe transaction checkers (Def. 4).
* :mod:`repro.core.context` — coordinator-side transaction state.
* :mod:`repro.core.twopv` — Two-Phase Validation (Algorithm 1).
* :mod:`repro.core.twopvc` — Two-Phase Validation Commit (Algorithm 2).
* :mod:`repro.core.approaches` and the four concrete modules — Deferred,
  Punctual, Incremental Punctual, Continuous (Defs 5, 6, 8, 9).
* :mod:`repro.core.complexity` — Table I closed forms.
"""

from repro.core.approaches import (
    APPROACHES,
    CONSISTENCY_LEVELS,
    PAPER_APPROACHES,
    ProofApproach,
    get_approach,
    register,
)
from repro.core.complexity import (
    ComplexityEntry,
    TABLE1,
    log_complexity,
    max_messages,
    max_proofs,
)
from repro.core.consistency import (
    ConsistencyLevel,
    is_consistent,
    phi_consistent,
    psi_consistent,
    stale_servers,
    versions_by_admin,
    view_instance,
)
from repro.core.context import TxnContext
from repro.core.continuous import ContinuousProofs
from repro.core.deferred import DeferredProofs
from repro.core.incremental import IncrementalPunctualProofs
from repro.core.punctual import PunctualProofs
from repro.core.trusted import TrustReport, check_safe, check_trusted
from repro.core.twopv import ValidationResult, run_2pv
from repro.core.twopvc import CommitResult, broadcast_decision, run_2pvc

__all__ = [
    "APPROACHES",
    "CONSISTENCY_LEVELS",
    "CommitResult",
    "ComplexityEntry",
    "ConsistencyLevel",
    "ContinuousProofs",
    "DeferredProofs",
    "IncrementalPunctualProofs",
    "PAPER_APPROACHES",
    "ProofApproach",
    "PunctualProofs",
    "TABLE1",
    "TrustReport",
    "TxnContext",
    "ValidationResult",
    "broadcast_decision",
    "check_safe",
    "check_trusted",
    "get_approach",
    "is_consistent",
    "log_complexity",
    "max_messages",
    "max_proofs",
    "phi_consistent",
    "psi_consistent",
    "register",
    "run_2pv",
    "run_2pvc",
    "stale_servers",
    "versions_by_admin",
    "view_instance",
]
