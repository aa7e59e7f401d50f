"""Credentials, certificate authorities, and validity checking.

The paper (Section III-A, following Lee & Winslett) defines a credential
``c_k`` as **syntactically valid** when it (i) is formatted properly, (ii)
has a valid digital signature, (iii) its issue time α(c_k) has passed, and
(iv) its expiration time ω(c_k) has not; and **semantically valid** at time
``t`` when an online status method shows it was not revoked at any
``t' ∈ [t_i, t]`` (``t_i`` being the time it was relied upon).

Real X.509 machinery adds nothing protocol-relevant, so signatures are
simulated with an HMAC-style keyed digest: each CA holds a secret, signs the
canonical credential content, and verifiers recompute the digest through a
:class:`CARegistry`.  Forged or tampered credentials therefore *do* fail
verification, which the tests exercise.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import CredentialError
from repro.policy.rules import Atom

#: Credentials that never expire use this sentinel expiration time.
NEVER = float("inf")


def _canonical(issuer: str, subject: str, atom: Atom, issued_at: float, expires_at: float) -> str:
    """Canonical string form of the signed content."""
    args = ",".join(str(a) for a in atom.args)
    return f"{issuer}|{subject}|{atom.predicate}({args})|{issued_at:.9f}|{expires_at!r}"


@dataclass(frozen=True)
class Credential:
    """A certified statement: ``issuer`` vouches that ``atom`` holds.

    ``issued_at`` is the paper's α(c_k), ``expires_at`` is ω(c_k).  The
    ``atom`` must be ground — credentials certify concrete facts such as
    ``sales_rep(bob)`` or the capability ``read_capability(bob, customers)``.
    """

    cred_id: str
    issuer: str
    subject: str
    atom: Atom
    issued_at: float
    expires_at: float
    signature: str

    def __post_init__(self) -> None:
        if not self.atom.is_ground:
            raise CredentialError(f"credential atoms must be ground: {self.atom!r}")
        if self.expires_at < self.issued_at:
            raise CredentialError(
                f"credential {self.cred_id!r} expires ({self.expires_at}) "
                f"before it is issued ({self.issued_at})"
            )

    def tampered(self, **changes: object) -> "Credential":
        """A copy with fields changed but the *original* signature (for tests)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RevocationRecord:
    """A revocation entry kept by the issuing CA."""

    cred_id: str
    revoked_at: float
    reason: str = ""


class CertificateAuthority:
    """A simulated CA: issues, signs, and revokes credentials.

    Only the issuing CA can revoke a credential (Section III-A).  The CA
    also implements the "online method ... to check the current status of a
    particular credential" — :meth:`status_clean_over` — which the OCSP
    responder node exposes over the simulated network.
    """

    def __init__(self, name: str, secret: Optional[str] = None) -> None:
        self.name = name
        self._secret = secret if secret is not None else f"secret:{name}"
        self._issued: Dict[str, Credential] = {}
        self._revocations: Dict[str, RevocationRecord] = {}
        self._serial = itertools.count(1)
        self._revocation_listeners: List[Callable[[RevocationRecord], object]] = []

    def subscribe_revocations(self, listener: Callable[[RevocationRecord], object]) -> None:
        """Register a callback fired on every effective revocation.

        Fired when :meth:`revoke` records a new (or earlier) revocation —
        i.e. exactly when the answer of :meth:`status_clean_over` may
        change.  The proof cache invalidates through this hook.
        """
        self._revocation_listeners.append(listener)

    # -- issuing -------------------------------------------------------------

    def sign(self, content: str) -> str:
        """Keyed digest standing in for a digital signature."""
        return hashlib.sha256(f"{self._secret}|{content}".encode("utf-8")).hexdigest()

    def issue(
        self,
        subject: str,
        atom: Atom,
        issued_at: float,
        expires_at: float = NEVER,
        cred_id: Optional[str] = None,
    ) -> Credential:
        """Issue (and remember) a signed credential."""
        cred_id = cred_id or f"{self.name}/c{next(self._serial)}"
        if cred_id in self._issued:
            raise CredentialError(f"duplicate credential id {cred_id!r}")
        signature = self.sign(_canonical(self.name, subject, atom, issued_at, expires_at))
        credential = Credential(
            cred_id=cred_id,
            issuer=self.name,
            subject=subject,
            atom=atom,
            issued_at=issued_at,
            expires_at=expires_at,
            signature=signature,
        )
        self._issued[cred_id] = credential
        return credential

    # -- revocation ------------------------------------------------------------

    def revoke(self, cred_id: str, at_time: float, reason: str = "") -> None:
        """Prematurely expire a credential this CA issued."""
        if cred_id not in self._issued:
            raise CredentialError(f"{self.name} never issued {cred_id!r}")
        existing = self._revocations.get(cred_id)
        if existing is not None and existing.revoked_at <= at_time:
            return  # already revoked earlier; keep the earliest record
        record = RevocationRecord(cred_id, at_time, reason)
        self._revocations[cred_id] = record
        for listener in self._revocation_listeners:
            listener(record)

    def revocation(self, cred_id: str) -> Optional[RevocationRecord]:
        """The revocation record, if any."""
        return self._revocations.get(cred_id)

    def status_clean_over(self, cred_id: str, start: float, end: float) -> bool:
        """Whether the credential was unrevoked throughout ``[start, end]``.

        A revocation at time ``r`` makes the credential revoked for every
        ``t ≥ r``, so the interval is clean iff no revocation happened at or
        before ``end``.  This is the semantic-validity check of Section
        III-A case 1 (``start`` is kept for interface clarity).
        """
        del start  # revocations are permanent; only the interval end matters
        record = self._revocations.get(cred_id)
        return record is None or record.revoked_at > end

    def get_credential(self, cred_id: str) -> Optional[Credential]:
        """Look up one issued credential by id (None if unknown)."""
        return self._issued.get(cred_id)


class CARegistry:
    """Directory of trust anchors used by verifiers.

    Servers verify signatures by asking the registry to recompute the keyed
    digest — the simulation stand-in for holding the CA's public key.
    Cloud servers that issue access-capability credentials register here
    too, since "servers can verify access credentials issued by each other"
    (Section III-A).
    """

    def __init__(self, authorities: Iterable[CertificateAuthority] = ()) -> None:
        self._authorities: Dict[str, CertificateAuthority] = {}
        self._revocation_listeners: List[Callable[[RevocationRecord], object]] = []
        for authority in authorities:
            self.add(authority)

    def add(self, authority: CertificateAuthority) -> CertificateAuthority:
        if authority.name in self._authorities:
            raise CredentialError(f"duplicate CA name {authority.name!r}")
        self._authorities[authority.name] = authority
        for listener in self._revocation_listeners:
            authority.subscribe_revocations(listener)
        return authority

    def subscribe_revocations(self, listener: Callable[[RevocationRecord], object]) -> None:
        """Fan a revocation listener out to every current *and future* CA.

        Verifiers that cache semantic-validity results (the proof cache)
        subscribe here once and hear about revocations registry-wide, no
        matter which authority issues them.
        """
        self._revocation_listeners.append(listener)
        for authority in self._authorities.values():
            authority.subscribe_revocations(listener)

    def get(self, name: str) -> Optional[CertificateAuthority]:
        return self._authorities.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._authorities)

    def resolve_credential(self, cred_id: str) -> Optional[Credential]:
        """Find an issued credential by id across every registered CA."""
        for authority in self._authorities.values():
            credential = authority.get_credential(cred_id)
            if credential is not None:
                return credential
        return None

    # -- validity checks -------------------------------------------------------

    def verify_signature(self, credential: Credential) -> bool:
        """Recompute the issuer's digest over the credential content."""
        authority = self._authorities.get(credential.issuer)
        if authority is None:
            return False
        expected = authority.sign(
            _canonical(
                credential.issuer,
                credential.subject,
                credential.atom,
                credential.issued_at,
                credential.expires_at,
            )
        )
        return expected == credential.signature

    def syntactically_valid(self, credential: Credential, now: float) -> Tuple[bool, str]:
        """Section III-A case 1, conditions (i)–(iv).

        Returns ``(ok, reason)``; ``reason`` names the first failed check.
        """
        if not isinstance(credential, Credential):
            return False, "malformed"
        if not self.verify_signature(credential):
            return False, "bad_signature"
        if now < credential.issued_at:
            return False, "not_yet_valid"
        if now >= credential.expires_at:
            return False, "expired"
        return True, "ok"

    def semantically_valid(
        self, credential: Credential, relied_at: float, now: float
    ) -> Tuple[bool, str]:
        """Section III-A semantic validity over ``[relied_at, now]``.

        This is the *local oracle* form used by in-process evaluation; the
        networked form goes through :class:`repro.policy.ocsp.OCSPResponder`.
        """
        authority = self._authorities.get(credential.issuer)
        if authority is None:
            return False, "unknown_issuer"
        start = min(relied_at, now)
        if authority.status_clean_over(credential.cred_id, start, now):
            return True, "ok"
        return False, "revoked"
