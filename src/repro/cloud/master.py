"""The master policy-version service for global (ψ) consistency.

Section V-A: "The global consistent version of the protocol uses something
akin to a master server to find the latest policy version.  As such, the TM
will retrieve this from some known master server."

The master hears about every publication synchronously from the policy
administrators (it *is* the authoritative record of ``ver(P)``), while
ordinary cloud servers learn of updates through the eventually-consistent
replicator — that asymmetry is precisely what makes global consistency
stronger than view consistency.

Message accounting: the paper charges one message per version retrieval
(the ``+r`` and ``+u`` terms of Table I), so the TM's query is counted
under ``CAT_MASTER`` while the reply travels in a non-protocol category.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cloud import messages as msg
from repro.errors import PolicyError
from repro.obs.spans import KIND_SERVER
from repro.policy.admin import PolicyAdministrator
from repro.policy.policy import Policy, PolicyId
from repro.sim.network import Message, Node

#: Category for master replies — excluded from protocol counts so that each
#: retrieval counts as one message, matching Table I.
MASTER_REPLY_CATEGORY = "master.reply"


class MasterVersionService(Node):
    """Knows the latest policy version (and body) per administrative domain."""

    def __init__(self, name: str = "master") -> None:
        super().__init__(name)
        self._latest: Dict[PolicyId, Policy] = {}
        #: Publication timeline per admin domain: ``(sim time, version)`` in
        #: publication order.  The authoritative ``ver(P)`` history — the
        #: trace sanitizer replays it to decide what "latest" meant at any
        #: instant of a finished run (ψ, Def. 3).
        self.version_log: Dict[str, List[Tuple[float, int]]] = {}

    # -- feeding -------------------------------------------------------------

    def track(self, administrator: PolicyAdministrator) -> None:
        """Follow an administrator: current version now, updates on publish."""
        self._latest[administrator.policy_id] = administrator.current
        self._log_version(administrator.current)
        administrator.on_publish(self._on_publish)

    def _on_publish(self, policy: Policy) -> None:
        current = self._latest.get(policy.policy_id)
        if current is None or policy.version > current.version:
            self._latest[policy.policy_id] = policy
            self._log_version(policy)

    def _log_version(self, policy: Policy) -> None:
        now = self.env.now if self.env is not None else 0.0
        self.version_log.setdefault(policy.policy_id.admin, []).append(
            (now, policy.version)
        )

    # -- local queries (used by in-process checks and tests) --------------------

    def latest_version(self, policy_id: PolicyId) -> int:
        try:
            return self._latest[policy_id].version
        except KeyError:
            raise PolicyError(f"master does not track {policy_id!r}") from None

    def latest_policy(self, policy_id: PolicyId) -> Policy:
        try:
            return self._latest[policy_id]
        except KeyError:
            raise PolicyError(f"master does not track {policy_id!r}") from None

    # -- network interface ---------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        if message.kind != msg.MASTER_VERSION_QUERY:
            raise NotImplementedError(f"master cannot handle {message.kind!r}")
        wanted = message.get("admins")
        if wanted is None:
            selected = dict(self._latest)
        else:
            selected = {pid: self._latest[pid] for pid in wanted if pid in self._latest}
        # The lookup is instantaneous in simulated time; the zero-duration
        # span still marks *when* the master answered on the waterfall.
        parent = message.get("span_ctx")
        if parent is not None:
            spans = self.metrics.spans
            span = spans.start(
                message.get("txn_id"),
                "master.version",
                KIND_SERVER,
                self.name,
                self.env.now,
                parent=parent,
                domains=len(selected),
            )
            spans.finish(span, self.env.now)
        self.reply(
            message,
            msg.MASTER_VERSION_REPLY,
            MASTER_REPLY_CATEGORY,
            txn_id=message.get("txn_id"),
            versions={pid: policy.version for pid, policy in selected.items()},
            policies=selected,
        )
