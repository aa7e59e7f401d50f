"""Eventually-consistent policy replication.

"Policies would typically be replicated — very much like data — among
multiple sites, often following the same weak or eventual consistency
model" (Section I).  The replicator is the source of the paper's anomalies:
when an administrator publishes version v+1, each server learns of it after
its *own* random delay, so for a window of time different servers enforce
different versions.

Replication traffic travels under ``CAT_REPLICATION``, which is never
included in protocol message counts.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud import messages as msg
from repro.errors import SimulationError
from repro.policy.admin import PolicyAdministrator
from repro.policy.policy import Policy
from repro.sim.network import Message, Node


class PolicyReplicator(Node):
    """Pushes published policies to servers with per-server random delays.

    One replicator node serves all administrative domains.  Delays are
    sampled uniformly from ``delay_bounds`` independently per (server,
    publication) pair, so propagation is unordered across servers — the
    weakly-consistent behaviour the paper assumes.
    """

    def __init__(
        self,
        name: str,
        rng: random.Random,
        delay_bounds: Tuple[float, float],
        targets: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name)
        low, high = delay_bounds
        if not 0 <= low <= high:
            raise SimulationError(f"invalid replication delay bounds {delay_bounds!r}")
        self.rng = rng
        self.delay_bounds = delay_bounds
        self._targets: List[str] = list(targets or [])

    def add_target(self, server_name: str) -> None:
        """Subscribe a server to future policy publications."""
        if server_name not in self._targets:
            self._targets.append(server_name)

    def distribute(self, policy: Policy, delay_override: Optional[Dict[str, float]] = None) -> None:
        """Send ``policy`` to every target after per-server random delays.

        ``delay_override`` maps server name → exact delay, letting tests and
        benches engineer precise staleness windows.
        """
        low, high = self.delay_bounds
        for server_name in self._targets:
            if delay_override and server_name in delay_override:
                delay = delay_override[server_name]
            else:
                delay = self.rng.uniform(low, high)
            self.env.process(self._deliver_later(policy, server_name, delay))

    def deliver_now(self, policy: Policy, server_name: str) -> None:
        """Immediate delivery (bootstrap: install initial policies everywhere)."""
        self.send(server_name, msg.POLICY_INSTALL, msg.CAT_REPLICATION, policy=policy)

    def _deliver_later(self, policy: Policy, server_name: str, delay: float):
        yield self.env.timeout(delay)
        self.deliver_now(policy, server_name)

    def handle_message(self, message: Message) -> None:
        raise NotImplementedError("the replicator only sends")


def bootstrap_policies(
    replicator: PolicyReplicator,
    administrators: Iterable[PolicyAdministrator],
    servers: Iterable["CloudServerLike"],
) -> None:
    """Install every administrator's current policy on every server, now.

    The initial installation is synchronous (directly into each server's
    policy store) so the simulation starts globally consistent, and every
    server becomes a replication target.  Later publications are
    distributed explicitly (:meth:`repro.workloads.testbed.Cluster.publish`
    calls :meth:`PolicyReplicator.distribute`, with engineered per-server
    delays when asked).
    """
    servers = list(servers)
    for administrator in administrators:
        for server in servers:
            replicator.add_target(server.name)
            server.policies.apply(administrator.current)


class CloudServerLike:
    """Structural type for :func:`bootstrap_policies` targets (doc only)."""

    name: str
    policies: object
