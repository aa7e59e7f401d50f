"""Policy administrators.

The ``A`` in the paper's policy mapping: the authority "in charge of
dictating an application's policy to the cloud servers" (Section III-A).
The administrator owns the authoritative version counter for its domain;
whatever it most recently published is ``ver(P)`` — the "latest policy
version" that global (ψ) consistency is defined against (Definition 3).

Distribution to servers happens through a publish hook so that the admin
stays decoupled from the replication layer (see
:class:`repro.cloud.replication.PolicyReplicator`).
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import PolicyError
from repro.policy.policy import Policy, PolicyId
from repro.policy.rules import RuleSet

PublishHook = Callable[[Policy], None]


class PolicyAdministrator:
    """Authoritative source of policy versions for one administrative domain."""

    def __init__(
        self,
        admin: str,
        initial_rules: RuleSet,
        description: str = "initial policy",
    ) -> None:
        self.policy_id = PolicyId(admin)
        self._history: List[Policy] = [Policy(self.policy_id, 1, initial_rules, description)]
        self._publish_hooks: List[PublishHook] = []

    @property
    def admin(self) -> str:
        return self.policy_id.admin

    @property
    def current(self) -> Policy:
        """The latest published policy (``ver(P)`` refers to its version)."""
        return self._history[-1]

    @property
    def latest_version(self) -> int:
        return self.current.version

    def history(self) -> List[Policy]:
        """Every version ever published, oldest first."""
        return list(self._history)

    def version(self, number: int) -> Policy:
        """Fetch a specific historical version (versions are dense from 1)."""
        if 1 <= number <= len(self._history):
            return self._history[number - 1]
        raise PolicyError(f"{self.admin} has no version {number}")

    def on_publish(self, hook: PublishHook) -> None:
        """Register a callback invoked with each newly published policy."""
        self._publish_hooks.append(hook)

    def publish(self, rules: RuleSet, description: str = "") -> Policy:
        """Dictate a new policy version and notify the replication layer."""
        successor = self.current.successor(rules, description)
        self._history.append(successor)
        for hook in self._publish_hooks:
            hook(successor)
        return successor
