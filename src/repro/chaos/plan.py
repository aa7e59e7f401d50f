"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec` records —
pure data, JSON-serializable, hashable — so a violating schedule can be
saved, shrunk, replayed, and diffed.  Every run of a plan is driven by the
cluster's seeded RNG streams; the same ``(seed, plan)`` pair reproduces the
same trace bit for bit (property-tested in tests/chaos).

Supported fault kinds:

``drop_link``
    Drop every message from ``src`` to ``dst`` during ``[at, at+duration)``.
    Either endpoint may be ``None`` (wildcard), so one spec expresses a
    node's full inbound or outbound blackout; two specs with swapped
    endpoints express a symmetric partition, one alone an asymmetric one.
``drop_rate``
    Drop each message with probability ``rate`` during the window (drawn
    from the chaos hook's own seeded stream, never the network's).
``delay``
    Add ``delay`` time units to each matching message's latency during the
    window.  Because unaffected traffic overtakes delayed traffic, this is
    also the reordering fault.
``crash``
    Crash ``node`` at time ``at`` — or, when ``on_kind`` is set, at the
    instant the node *sends* its first message of that kind at/after
    ``at`` (this is how a participant is killed precisely between forcing
    PREPARED and receiving the decision: ``on_kind="2pvc.vote"``).
    With ``down_for`` set the node restarts that much later and runs its
    WAL recovery; otherwise it stays down until the harness's end-of-run
    recovery pass.
``policy_churn``
    Publish a fresh policy version for ``admin`` at time ``at`` (a benign
    republish by default; ``revoke=True`` strips the grant rules instead),
    replicated with per-server delays up to ``delay`` (drawn from the
    chaos stream) — the replica-staleness injection.  A churn landing
    mid-2PV forces the validation loop to repair versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud import messages as msg
from repro.errors import SimulationError

#: The closed set of fault kinds (validated on construction).
FAULT_KINDS = ("drop_link", "drop_rate", "delay", "crash", "policy_churn")
#: The kinds that act during a window ``[at, at + duration)``.
WINDOWED_KINDS = ("drop_link", "drop_rate", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  Unused fields stay at their defaults."""

    kind: str
    #: Window start (or trigger-arm time for ``crash``/``policy_churn``).
    at: float = 0.0
    #: Window length for windowed kinds (``drop_link``/``drop_rate``/``delay``).
    duration: float = 0.0
    #: Crash target (``crash``).
    node: Optional[str] = None
    #: Link endpoints (``drop_link``/``delay``); ``None`` = wildcard.
    src: Optional[str] = None
    dst: Optional[str] = None
    #: Drop probability (``drop_rate``).
    rate: float = 0.0
    #: Extra latency (``delay``) or max replication staleness (``policy_churn``).
    delay: float = 0.0
    #: Message kind arming a send-triggered crash (``crash``).
    on_kind: Optional[str] = None
    #: Restart the crashed node after this long (``crash``); ``None`` =
    #: stay down until the harness's end-of-run recovery pass.
    down_for: Optional[float] = None
    #: Administrative domain to churn (``policy_churn``).
    admin: Optional[str] = None
    #: ``policy_churn`` only: publish a *revoking* version (grant rules
    #: stripped) instead of benignly republishing the current rules.
    revoke: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(f"unknown fault kind {self.kind!r}")
        if self.kind == "crash" and self.node is None:
            raise SimulationError("crash fault needs a node")
        if self.kind == "policy_churn" and self.admin is None:
            raise SimulationError("policy_churn fault needs an admin")
        if self.kind == "drop_rate" and not 0.0 < self.rate <= 1.0:
            raise SimulationError(f"drop_rate needs rate in (0, 1], got {self.rate!r}")
        # Negated comparisons, so that NaN fails every range check.
        if not (self.at >= 0 and math.isfinite(self.at)):
            raise SimulationError(f"fault 'at' must be finite and >= 0, got {self.at!r}")
        if self.kind in WINDOWED_KINDS and not self.duration > 0:
            raise SimulationError(f"{self.kind} needs 'duration' > 0, got {self.duration!r}")
        if self.down_for is not None and not self.down_for > 0:
            raise SimulationError(f"crash needs 'down_for' > 0 when set, got {self.down_for!r}")
        if self.kind in ("delay", "policy_churn") and not self.delay >= 0:
            raise SimulationError(f"{self.kind} needs 'delay' >= 0, got {self.delay!r}")

    def active(self, now: float) -> bool:
        """Whether a windowed fault covers instant ``now``."""
        return self.at <= now < self.at + self.duration

    def describe(self) -> str:
        window = f"[{self.at:g}, {self.at + self.duration:g})"
        if self.kind == "drop_link":
            return f"drop {self.src or '*'}->{self.dst or '*'} during {window}"
        if self.kind == "drop_rate":
            return f"drop {self.rate:.0%} of messages during {window}"
        if self.kind == "delay":
            return (
                f"delay {self.src or '*'}->{self.dst or '*'} "
                f"by +{self.delay:g} during {window}"
            )
        if self.kind == "crash":
            trigger = (
                f"when it sends {self.on_kind!r} (armed at {self.at:g})"
                if self.on_kind
                else f"at {self.at:g}"
            )
            restart = f", restart after {self.down_for:g}" if self.down_for else ""
            return f"crash {self.node} {trigger}{restart}"
        flavour = "revoking" if self.revoke else "new"
        return (
            f"publish {flavour} {self.admin!r} policy at {self.at:g} "
            f"(replica staleness up to {self.delay:g})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, defaults omitted for legible counterexamples."""
        # ``kind`` has no default (``MISSING``), so it is always kept.
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if getattr(self, spec_field.name) != spec_field.default
        }


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serializable schedule of faults."""

    specs: Tuple[FaultSpec, ...] = ()
    #: Free-form label carried into incident bundles and reports.
    label: str = ""

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def by_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.kind == kind)

    def without(self, indices: Iterable[int]) -> "FaultPlan":
        """A copy with the given spec positions removed (for shrinking)."""
        drop = set(indices)
        kept = tuple(spec for pos, spec in enumerate(self.specs) if pos not in drop)
        return FaultPlan(kept, label=self.label)

    def describe(self) -> str:
        if not self.specs:
            return "(no faults)"
        lines = [f"{pos}. {spec.describe()}" for pos, spec in enumerate(self.specs)]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        specs = tuple(FaultSpec(**record) for record in data.get("faults", ()))
        return cls(specs, label=str(data.get("label", "")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def partition(
    group_a: Sequence[str], group_b: Sequence[str], at: float, duration: float
) -> List[FaultSpec]:
    """Symmetric partition between two node groups as drop_link specs."""
    specs: List[FaultSpec] = []
    for a in group_a:
        for b in group_b:
            specs.append(FaultSpec("drop_link", at=at, duration=duration, src=a, dst=b))
            specs.append(FaultSpec("drop_link", at=at, duration=duration, src=b, dst=a))
    return specs


def random_plan(
    rng: Any,
    nodes: Sequence[str],
    admins: Sequence[str],
    horizon: float,
    n_faults: int = 3,
    label: str = "",
    protected: Sequence[str] = (),
) -> FaultPlan:
    """Draw a random fault schedule from a seeded RNG.

    ``nodes`` are crash/partition candidates (coordinators excluded by
    listing them in ``protected`` keeps the paper's TM-survives assumption
    when desired), ``admins`` the churnable policy domains, ``horizon`` the
    workload's rough duration.  Determinism: the caller owns the RNG — the
    fuzzer passes a stream derived from the case seed, so the same seed
    always yields the same plan.
    """
    crashable = [node for node in nodes if node not in protected]
    specs: List[FaultSpec] = []
    for _ in range(n_faults):
        at = round(rng.uniform(0.0, horizon * 0.8), 1)
        duration = round(rng.uniform(horizon * 0.05, horizon * 0.4), 1)
        roll = rng.random()
        if roll < 0.25 and crashable:
            node = rng.choice(crashable)
            down_for = round(rng.uniform(horizon * 0.1, horizon * 0.5), 1)
            if rng.random() < 0.5:
                kinds = (msg.VOTE_REPLY, msg.VALIDATE_REPLY, msg.QUERY_RESULT)
                specs.append(
                    FaultSpec(
                        "crash",
                        at=at,
                        node=node,
                        on_kind=rng.choice(kinds),
                        down_for=down_for,
                    )
                )
            else:
                specs.append(FaultSpec("crash", at=at, node=node, down_for=down_for))
        elif roll < 0.45 and len(nodes) >= 2:
            src, dst = rng.sample(list(nodes), 2)
            specs.append(FaultSpec("drop_link", at=at, duration=duration, src=src, dst=dst))
        elif roll < 0.65:
            specs.append(
                FaultSpec("drop_rate", at=at, duration=duration, rate=round(rng.uniform(0.01, 0.15), 3))
            )
        elif roll < 0.85 or not admins:
            delay = round(rng.uniform(1.0, horizon * 0.1), 1)
            src = rng.choice(list(nodes)) if rng.random() < 0.5 else None
            specs.append(
                FaultSpec("delay", at=at, duration=duration, src=src, delay=delay)
            )
        else:
            specs.append(
                FaultSpec(
                    "policy_churn",
                    at=at,
                    admin=rng.choice(list(admins)),
                    delay=round(rng.uniform(0.0, horizon * 0.3), 1),
                )
            )
    specs.sort(key=lambda spec: (spec.at, spec.kind))
    return FaultPlan(tuple(specs), label=label)
