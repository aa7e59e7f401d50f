"""Exception hierarchy shared by every subsystem of :mod:`repro`.

The hierarchy is intentionally shallow.  Code that orchestrates transactions
catches :class:`TransactionAborted` (and inspects ``reason``); code driving
the simulator catches :class:`SimulationError`; everything else is a
programming error and is allowed to propagate.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class StopSimulation(Exception):
    """Internal control-flow signal used by :meth:`Environment.run`."""

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class NetworkError(ReproError):
    """A message could not be delivered."""


class RequestTimeout(NetworkError):
    """A request/reply exchange did not complete within its deadline."""


class PolicyError(ReproError):
    """Malformed policy, rule, or version bookkeeping problem."""


class CredentialError(ReproError):
    """Malformed or forged credential."""


class StorageError(ReproError):
    """Invalid access to the per-server storage engine."""


class DeadlockError(ReproError):
    """The lock manager detected a wait-for cycle."""

    def __init__(self, victim: str, cycle: tuple) -> None:
        super().__init__(f"deadlock: victim={victim!r} cycle={cycle!r}")
        self.victim = victim
        self.cycle = cycle


class AbortReason(enum.Enum):
    """Why a transaction was rolled back.

    The distinction matters for the evaluation benches: the paper's trade-off
    discussion (Section VI-B) is about how often each approach pays for
    *policy* aborts versus how early it detects them.
    """

    INTEGRITY_VIOLATION = "integrity_violation"
    PROOF_FAILED = "proof_failed"
    POLICY_INCONSISTENCY = "policy_inconsistency"
    CREDENTIAL_REVOKED = "credential_revoked"
    DEADLOCK = "deadlock"
    PARTICIPANT_UNREACHABLE = "participant_unreachable"
    USER_ABORT = "user_abort"


class VerificationError(ReproError):
    """The trace sanitizer found protocol-conformance violations.

    Raised by ``Cluster.verify(raise_on_violation=True)``.  ``report`` is the full
    :class:`repro.verify.report.VerificationReport`, so callers can render
    the offending event slices.
    """

    def __init__(self, report: object) -> None:
        violations = getattr(report, "violations", ())
        codes = sorted({v.code for v in violations})
        super().__init__(
            f"trace verification failed: {len(violations)} violation(s) ({', '.join(codes)})"
        )
        self.report = report


class TransactionAborted(ReproError):
    """Raised inside transaction-manager processes to unwind a transaction."""

    def __init__(self, reason: AbortReason, detail: str = "") -> None:
        super().__init__(f"transaction aborted ({reason.value}): {detail}")
        self.reason = reason
        self.detail = detail
