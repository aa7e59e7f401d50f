"""Online credential status checking (the paper's OCSP assumption).

Section III-A: "each CA offers an online method that allows any server to
check the current status of a particular credential issued by the CA"
(citing RFC 2560).  :class:`OCSPResponder` is a network node fronting the CA
registry; :func:`fetch_statuses` is the generator helper servers use to
batch-check the credentials of a query before evaluating its proof.

OCSP traffic is counted under the ``"ocsp"`` message category so that it
never pollutes the protocol-message counts of Table I (the paper's analysis
likewise excludes status checking from message complexity).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence

from repro.policy.credentials import CARegistry, Credential
from repro.sim.events import Event
from repro.sim.network import Message, Node

#: Message kinds spoken by the responder.
CHECK = "ocsp.check"
STATUS = "ocsp.status"

#: Accounting category for all status traffic.
CATEGORY = "ocsp"

#: Node name of the cluster's one responder.
OCSP_RESPONDER = "ocsp"


class OCSPResponder(Node):
    """The cluster's one responder (node :data:`OCSP_RESPONDER`), answering
    status queries for every registered CA.

    Running one responder (rather than one per CA) keeps topology simple;
    the registry routes each lookup to the issuing authority, so trust
    boundaries are preserved.
    """

    def __init__(self, registry: CARegistry) -> None:
        super().__init__(OCSP_RESPONDER)
        self.registry = registry

    def handle_message(self, message: Message) -> None:
        if message.kind != CHECK:
            raise NotImplementedError(f"OCSP responder cannot handle {message.kind!r}")
        results: Dict[str, bool] = {}
        for entry in message["credentials"]:
            cred_id, issuer, start, end = entry
            authority = self.registry.get(issuer)
            if authority is None:
                results[cred_id] = False  # unknown issuer: fail closed
            else:
                results[cred_id] = authority.status_clean_over(cred_id, start, end)
        self.reply(message, STATUS, CATEGORY, statuses=results)


def fetch_statuses(
    node: Node,
    credentials: Sequence[Credential],
    now: float,
) -> Generator[Event, Any, Dict[str, bool]]:
    """Batch-check ``credentials`` against an :class:`OCSPResponder`.

    A generator for use inside simulation processes::

        statuses = yield from fetch_statuses(self, creds, self.env.now)
        checker = PrefetchedStatuses(statuses)
    """
    entries = [
        (credential.cred_id, credential.issuer, credential.issued_at, now)
        for credential in credentials
    ]
    reply = yield node.request(OCSP_RESPONDER, CHECK, CATEGORY, credentials=entries)
    return dict(reply["statuses"])
