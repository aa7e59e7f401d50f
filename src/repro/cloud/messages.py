"""Message kinds and accounting categories for every protocol in the system.

Centralizing the vocabulary keeps the transaction manager, the cloud
servers, and the protocol generators (2PC / 2PV / 2PVC) in agreement, and
pins down exactly which messages count toward the paper's Table I.

Accounting categories
---------------------
The paper's message complexity counts only *protocol* messages:

* ``CAT_VOTE`` — Prepare-to-Commit / Prepare-to-Validate and their replies
  (the voting/collection phase, 2n per round).
* ``CAT_UPDATE`` — policy Update messages and their replies (these are the
  re-executed collection rounds).
* ``CAT_DECISION`` — decision broadcasts and acknowledgements (2n).
* ``CAT_MASTER`` — master policy-version fetches (the ``+r`` and ``+u``
  terms under global consistency).
* ``CAT_QUERY`` — ordinary query execution traffic (not part of Table I,
  which analyses only commit-time complexity; counted separately).

Infrastructure categories (never in protocol totals):

* ``CAT_OCSP`` — online credential status checks.
* ``CAT_REPLICATION`` — eventual-consistency policy propagation.
* ``CAT_RECOVERY`` — post-crash decision requests.
"""

from __future__ import annotations

from typing import Tuple

# -- categories -------------------------------------------------------------

CAT_VOTE = "protocol.vote"
CAT_UPDATE = "protocol.update"
CAT_DECISION = "protocol.decision"
CAT_MASTER = "protocol.master"
CAT_QUERY = "query"
CAT_OCSP = "ocsp"
CAT_REPLICATION = "replication"
CAT_RECOVERY = "recovery"

#: Categories included in the paper's Table I message counts.
PROTOCOL_CATEGORIES: Tuple[str, ...] = (CAT_VOTE, CAT_UPDATE, CAT_DECISION, CAT_MASTER)

# -- retry pacing -------------------------------------------------------------

#: Exponential backoff shared by coordinator RPC retries and a recovering
#: participant's DECISION_REQUEST retries (simulation units).
RPC_BACKOFF_BASE = 5.0
RPC_BACKOFF_FACTOR = 2.0


def rpc_backoff(attempt: int) -> float:
    """Wait before retry ``attempt`` (1-based): ``base * factor**(attempt-1)``."""
    return RPC_BACKOFF_BASE * RPC_BACKOFF_FACTOR ** (attempt - 1)

# -- query execution -----------------------------------------------------------

EXECUTE_QUERY = "query.execute"
QUERY_RESULT = "query.result"
QUERY_DENIED = "query.denied"

# -- 2PV (Two-Phase Validation, Algorithm 1) -------------------------------------

PREPARE_TO_VALIDATE = "2pv.prepare"
VALIDATE_REPLY = "2pv.reply"
POLICY_UPDATE = "2pv.update"
POLICY_UPDATED = "2pv.updated"

# -- 2PC / 2PVC voting -----------------------------------------------------------

PREPARE_TO_COMMIT = "2pvc.prepare"
VOTE_REPLY = "2pvc.vote"

# -- decision phase ---------------------------------------------------------------

DECISION = "decision"
DECISION_ACK = "decision.ack"

# -- master version service --------------------------------------------------------

MASTER_VERSION_QUERY = "master.version"
MASTER_VERSION_REPLY = "master.versions"

# -- policy replication --------------------------------------------------------------

POLICY_INSTALL = "policy.install"

# -- recovery -------------------------------------------------------------------------

DECISION_REQUEST = "recovery.decision_request"
DECISION_REPLY = "recovery.decision_reply"
