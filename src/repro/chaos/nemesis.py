"""Applies a :class:`~repro.chaos.plan.FaultPlan` to a live testbed cluster.

The nemesis is the simulator's one fault injector: nothing else loses a
message or crashes a node on a schedule (the network itself only loses
what arrives at a node that is down).  It touches the simulation through
two narrow seams:

* the network's **chaos hook** (``Network.chaos``), the one drop-or-delay
  decision per message send, drawing only from its own seeded RNG stream —
  so arming a nemesis never perturbs the base trace's randomness, and the
  same ``(seed, plan)`` pair replays the same run bit for bit;
* **deferred kernel callbacks** for the scheduled faults (timed crashes,
  restarts, policy churn).

Message-triggered crashes (``FaultSpec(on_kind=...)``) fire from the hook:
when the target node *sends* its first matching message at/after the arm
time, the crash is deferred by zero time units — the message itself is
already on the wire (a real node crashes after the packet leaves), which is
exactly how a participant is killed between forcing PREPARED and hearing
the decision.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.chaos.plan import FaultPlan, FaultSpec
from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.network import Message


class ChaosHook:
    """Per-send fault decisions for the network (``Network.chaos``)."""

    def __init__(self, nemesis: "Nemesis") -> None:
        self._nemesis = nemesis

    def on_send(self, message: Message, now: float) -> Tuple[bool, float]:
        """Return ``(drop, extra_delay)`` for one outgoing message."""
        return self._nemesis._on_send(message, now)


def _link_matches(spec: FaultSpec, message: Message) -> bool:
    if spec.src is not None and spec.src != message.src:
        return False
    if spec.dst is not None and spec.dst != message.dst:
        return False
    return True


class Nemesis:
    """Installs a fault plan on a cluster and drives its scheduled faults."""

    def __init__(self, cluster: Any, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        #: Chaos draws come from a dedicated stream forked off the cluster
        #: seed — never from the network's stream (determinism seam).
        self.rng = cluster.rng.stream("chaos")
        self._drop_links = plan.by_kind("drop_link")
        self._drop_rates = plan.by_kind("drop_rate")
        self._delays = plan.by_kind("delay")
        #: Armed send-triggered crashes, keyed by node; removed once fired.
        self._triggers: Dict[str, List[FaultSpec]] = {}
        self._installed = False
        #: Nodes this nemesis crashed and has not yet restarted.
        self.downed: List[str] = []

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "Nemesis":
        """Arm the plan: hook the network, schedule the timed faults."""
        if self._installed:
            raise SimulationError("nemesis already installed")
        self._installed = True
        network = self.cluster.network
        if network.chaos is not None:
            raise SimulationError("cluster already has a chaos hook")
        network.chaos = ChaosHook(self)
        for spec in self.plan.by_kind("crash"):
            if spec.on_kind is not None:
                self._triggers.setdefault(spec.node or "", []).append(spec)
            else:
                self.env.defer(spec.at - self.env.now, self._crash_cb, spec)
        for spec in self.plan.by_kind("policy_churn"):
            self.env.defer(spec.at - self.env.now, self._churn_cb, spec)
        return self

    def recover_all(self) -> List[str]:
        """Restart every node still down (the end-of-run recovery pass)."""
        restarted = []
        for name in list(self.downed):
            node = self.cluster.network.node(name)
            if node.is_down:
                node.recover()
                restarted.append(name)
            self.downed.remove(name)
        return restarted

    # -- per-send decisions -------------------------------------------------

    def _on_send(self, message: Message, now: float) -> Tuple[bool, float]:
        triggers = self._triggers.get(message.src)
        if triggers:
            for spec in list(triggers):
                if now >= spec.at and message.kind == spec.on_kind:
                    triggers.remove(spec)
                    # Crash *after* this send completes: the message is
                    # already on the wire, the node dies holding its locks.
                    self.env.defer(0.0, self._crash_cb, spec)
        for spec in self._drop_links:
            if spec.active(now) and _link_matches(spec, message):
                return True, 0.0
        for spec in self._drop_rates:
            if spec.active(now) and self.rng.random() < spec.rate:
                return True, 0.0
        extra = 0.0
        for spec in self._delays:
            if spec.active(now) and _link_matches(spec, message):
                extra += spec.delay
        return False, extra

    # -- scheduled faults ----------------------------------------------------

    def _crash_cb(self, event: Event) -> None:
        spec: FaultSpec = event.value
        node = self.cluster.network.node(spec.node)
        if node.is_down:
            return
        node.crash()
        if spec.node not in self.downed:
            self.downed.append(spec.node)
        if spec.down_for is not None:
            self.env.defer(spec.down_for, self._recover_cb, spec.node)

    def _recover_cb(self, event: Event) -> None:
        name: str = event.value
        node = self.cluster.network.node(name)
        if node.is_down:
            node.recover()
        if name in self.downed:
            self.downed.remove(name)

    def _churn_cb(self, event: Event) -> None:
        spec: FaultSpec = event.value
        admin = self.cluster.admins[spec.admin]
        # A benign republish bumps the version without changing semantics —
        # pure churn; a revoking one strips the may_* grant rules (the
        # ``item`` facts stay, keeping the policy well-formed), so proofs
        # evaluated under it come out FALSE.  Per-server staleness comes
        # from the chaos stream, bounded by the spec's delay.
        rules = admin.current.rules
        if spec.revoke:
            from repro.policy.rules import RuleSet

            rules = RuleSet(
                rule
                for rule in rules
                if not rule.head.predicate.startswith("may_")
            )
        delays = {
            name: round(self.rng.uniform(0.0, spec.delay), 3)
            for name in self.cluster.servers
        }
        self.cluster.publish(
            spec.admin,
            rules,
            description="chaos policy churn (revoke)" if spec.revoke else "chaos policy churn",
            delays=delays,
        )
