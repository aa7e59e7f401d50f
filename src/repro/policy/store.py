"""Per-server policy stores.

Each cloud server keeps the most recent policy version *it has seen* for
each administrative domain.  Because policy updates propagate through the
eventually-consistent replication layer, different servers may hold
different versions at the same instant — which is exactly the inconsistency
the paper's protocols detect and repair.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import PolicyError
from repro.policy.policy import Policy, PolicyId

#: Callback fired after a policy install changes the store.  Receives the
#: newly installed policy and the version it replaced (``None`` on first
#: install) so subscribers — notably the proof cache's predicate-precise
#: invalidation — can diff the two.
InstallListener = Callable[[Policy, Optional[Policy]], object]


class PolicyStore:
    """The policies currently known to one server."""

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self._policies: Dict[PolicyId, Policy] = {}
        self._listeners: List[InstallListener] = []
        for policy in policies:
            self.apply(policy)

    def subscribe(self, listener: InstallListener) -> None:
        """Register a callback fired whenever :meth:`apply` installs.

        Listeners only see *effective* installs (newer versions), never the
        stale/duplicate deliveries :meth:`apply` ignores.  The proof cache
        hooks its version invalidation here.
        """
        self._listeners.append(listener)

    def apply(self, policy: Policy) -> bool:
        """Install ``policy`` if it is newer than what is already held.

        Returns ``True`` when the store changed.  Stale or duplicate
        versions are ignored (replication may deliver out of order).
        Effective installs notify every :meth:`subscribe`\\ d listener.
        """
        current = self._policies.get(policy.policy_id)
        if current is not None and current.version >= policy.version:
            return False
        self._policies[policy.policy_id] = policy
        for listener in self._listeners:
            listener(policy, current)
        return True

    def current(self, policy_id: PolicyId) -> Policy:
        """The installed policy for a domain (raises if absent)."""
        try:
            return self._policies[policy_id]
        except KeyError:
            raise PolicyError(f"no policy installed for {policy_id!r}") from None

    def get(self, policy_id: PolicyId) -> Optional[Policy]:
        """The installed policy for a domain, or ``None``."""
        return self._policies.get(policy_id)

    def version_of(self, policy_id: PolicyId) -> int:
        """Installed version number for a domain."""
        return self.current(policy_id).version

    def versions(self) -> Dict[PolicyId, int]:
        """Snapshot of all (domain → version) pairs."""
        return {pid: policy.version for pid, policy in self._policies.items()}

    def __len__(self) -> int:
        return len(self._policies)

    def __contains__(self, policy_id: PolicyId) -> bool:
        return policy_id in self._policies
