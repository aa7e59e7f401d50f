"""Versioned authorization policies.

Section III-A models a policy as a mapping ``P : S × 2^D → 2^R × A × N`` —
for a server and a set of data items, the policy yields inference rules
``R``, the administrative domain ``A`` that dictates it, and a version
number from ``N``.  :class:`Policy` is one (rules, admin, version) value;
the per-server mapping lives in :class:`repro.policy.store.PolicyStore`.

Access decisions are phrased as goals over two distinguished predicates:
``may_read(user, item)`` and ``may_write(user, item)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PolicyError
from repro.policy.rules import Atom, RuleSet


class Operation(enum.Enum):
    """The two query operations of the paper's model."""

    READ = "read"
    WRITE = "write"


#: Goal predicate per operation.
GUARD_PREDICATES = {
    Operation.READ: "may_read",
    Operation.WRITE: "may_write",
}


@dataclass(frozen=True, slots=True)
class PolicyId:
    """Identifies a policy: the administrative domain that dictates it.

    The paper keys consistency on "all policies belonging to the same
    administrator A", so the administrative domain name is the unique policy
    identifier exchanged in 2PV/2PVC messages (the ``p_i`` of the (v_i, p_i)
    tuples).
    """

    admin: str

    def __repr__(self) -> str:
        return f"PolicyId({self.admin})"


@dataclass(frozen=True, slots=True)
class Policy:
    """One version of an administrative domain's authorization policy."""

    policy_id: PolicyId
    version: int
    rules: RuleSet
    description: str = ""

    def __post_init__(self) -> None:
        if self.version < 0:
            raise PolicyError(f"policy versions are natural numbers, got {self.version}")

    @property
    def admin(self) -> str:
        """The administrative domain A in charge of this policy."""
        return self.policy_id.admin

    def goal(self, operation: Operation, user: str, item: str) -> Atom:
        """The proof goal for ``user`` performing ``operation`` on ``item``."""
        return Atom(GUARD_PREDICATES[operation], (user, item))

    def successor(self, rules: RuleSet, description: str = "") -> "Policy":
        """The next version of this policy with new rules."""
        return Policy(self.policy_id, self.version + 1, rules, description)

    def __wire_size__(self) -> int:
        """Approximate serialized size in bytes (see ``repro.sim.topology``).

        Policies are the largest payloads on the simulated wire (policy
        replication, 2PV Update pushes, master replies), so their size is
        what makes bandwidth modeling meaningful.  Charged per rule rather
        than by deep traversal to stay cheap on the send hot path.
        """
        return 48 + len(self.admin) + len(self.description) + 48 * len(self.rules)

    def __repr__(self) -> str:
        return f"Policy({self.admin} v{self.version}, {len(self.rules)} rules)"


def ver(policy: Policy) -> int:
    """The paper's ``ver : P → N`` function."""
    return policy.version
