"""Multi-datacenter topology: regions, a latency matrix, and bandwidth.

The seed-era network drew every delay from one global :class:`~repro.sim.
network.LatencyModel`, which is fine for a rack but wrong for a planet:
cross-datacenter links have a different base delay, different jitter, and
finite bandwidth.  This module adds the placement layer:

* :class:`LinkProfile` — one directed region pair's base one-way delay,
  jitter fraction, and bandwidth (bytes per simulation unit);
* :class:`RegionTopology` — the region set, the pairwise profile matrix
  (symmetric fill), and the node → region placement map;
* :class:`RegionalLatency` — a :class:`~repro.sim.network.LatencyModel`
  that samples ``base · (1 + U(−jitter, +jitter))`` for the link between
  the endpoints' regions and, when bandwidth modeling is on, adds a
  message-size / bandwidth transfer term.

Latency units follow the repo convention (one unit ≈ 1 ms); bandwidth is
bytes per unit, so 12 500 bytes/unit ≈ 100 Mbit/s.  Message sizes are
*estimated* from payload structure (:func:`estimate_wire_size`) — objects
may publish an explicit ``__wire_size__()`` — and the estimate is
deterministic, so topology-aware runs remain seed-reproducible.

See docs/scale.md for the full semantics and the default WAN matrix.
"""

from __future__ import annotations

import random
from collections.abc import Mapping  # the runtime check; typing's alias checks in Python
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.network import LatencyModel

#: The canonical three-datacenter layout used by the scale bench.
DEFAULT_REGIONS: Tuple[str, ...] = ("us-east", "eu-west", "ap-south")

#: Fixed per-message overhead (framing, headers) in bytes.
MESSAGE_OVERHEAD_BYTES = 64

#: Flat size charged for payload objects without an explicit hint.
DEFAULT_OBJECT_BYTES = 128

#: Bandwidth of a cross-region link (bytes/unit, ≈ 20 Mbit/s per flow).
WAN_BANDWIDTH = 2_500.0


@dataclass(frozen=True)
class LinkProfile:
    """One region pair's link characteristics.

    ``base`` is the one-way propagation delay in simulation units;
    ``jitter`` is a fraction of ``base`` (a delay sample is uniform in
    ``[base·(1−jitter), base·(1+jitter)]``); ``bandwidth`` is bytes per
    simulation unit (``None`` = infinite, i.e. no transfer term).
    """

    base: float
    jitter: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base < 0:
            raise SimulationError(f"negative base latency {self.base!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {self.bandwidth!r}")

    def sample_delay(self, rng: random.Random) -> float:
        """Propagation delay: base with uniform multiplicative jitter."""
        if self.jitter == 0.0:
            return self.base
        return self.base * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def transfer_time(self, size_bytes: float) -> float:
        """Serialization delay for ``size_bytes`` over this link."""
        if self.bandwidth is None:
            return 0.0
        return size_bytes / self.bandwidth


class RegionTopology:
    """Region set, pairwise link profiles, and node placement.

    The profile matrix is symmetric by construction: a profile given for
    ``(a, b)`` also answers ``(b, a)`` unless the reverse direction is
    declared explicitly.  Intra-region pairs fall back to
    ``intra_profile`` and unknown pairs to ``default_profile``, so a
    topology only needs to spell out the links that matter.

    Nodes that were never :meth:`place`\\ d live in ``default_region``
    (the first region) — the network stays usable while a testbed is being
    wired up.
    """

    def __init__(
        self,
        regions: Iterable[str],
        intra_profile: Optional[LinkProfile] = None,
        default_profile: Optional[LinkProfile] = None,
    ) -> None:
        self.regions: Tuple[str, ...] = tuple(regions)
        if not self.regions:
            raise SimulationError("a topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise SimulationError(f"duplicate regions in {self.regions!r}")
        self.intra_profile = intra_profile or LinkProfile(0.5, 0.3)
        self.default_profile = default_profile or LinkProfile(60.0, 0.15, WAN_BANDWIDTH)
        self.default_region = self.regions[0]
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        self._placement: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], Tuple[Tuple[str, str], LinkProfile]] = {}

    # -- matrix ------------------------------------------------------------

    def set_profile(self, src: str, dst: str, profile: LinkProfile) -> None:
        """Declare the link profile for a (directed) region pair."""
        for region in (src, dst):
            if region not in self.regions:
                raise SimulationError(f"unknown region {region!r}")
        self._profiles[(src, dst)] = profile
        self._links.clear()

    def profile_between(self, src_region: str, dst_region: str) -> LinkProfile:
        """The effective profile for a region pair (symmetric fill)."""
        profile = self._profiles.get((src_region, dst_region))
        if profile is None:
            profile = self._profiles.get((dst_region, src_region))
        if profile is None:
            profile = self.intra_profile if src_region == dst_region else self.default_profile
        return profile

    # -- placement ---------------------------------------------------------

    def place(self, node: str, region: str) -> None:
        """Pin a node name to a region."""
        if region not in self.regions:
            raise SimulationError(f"unknown region {region!r}")
        self._placement[node] = region
        self._links.clear()

    def region_of(self, node: str) -> str:
        """The region a node lives in (``default_region`` if unplaced)."""
        return self._placement.get(node, self.default_region)

    def placement(self) -> Dict[str, str]:
        """A copy of the node → region map (placed nodes only)."""
        return dict(self._placement)

    def link(self, src: str, dst: str) -> Tuple[Tuple[str, str], LinkProfile]:
        """The region pair and link profile between two *nodes* (memoised per pair)."""
        found = self._links.get((src, dst))
        if found is None:
            pair = (self.region_of(src), self.region_of(dst))
            found = self._links[(src, dst)] = (pair, self.profile_between(*pair))
        return found

    def is_cross_region(self, src: str, dst: str) -> bool:
        src_region, dst_region = self.link(src, dst)[0]
        return src_region != dst_region

    def profile(self, src: str, dst: str) -> LinkProfile:
        """The link profile between two *nodes*."""
        return self.link(src, dst)[1]


def default_wan_topology(
    regions: Tuple[str, ...] = DEFAULT_REGIONS,
    lan_bandwidth: Optional[float] = None,
) -> RegionTopology:
    """The canonical three-datacenter matrix (units ≈ ms; bytes/unit).

    Numbers follow public inter-region RTT tables, halved to one-way:
    us-east ↔ eu-west ≈ 40, us-east ↔ ap-south ≈ 90, eu-west ↔ ap-south ≈ 65,
    intra-region ≈ 0.5, with proportionally larger jitter on longer links.
    WAN bandwidth is 2 500 bytes/unit (≈ 20 Mbit/s effective per
    flow) so KB-scale payloads (policy bodies, proof bundles) pay a
    visible serialization cost cross-region; LAN bandwidth is infinite by
    default.  For region sets beyond the canonical three, extra pairs fall
    back to the topology's defaults (intra 0.5, cross 60 · 15 % jitter).
    """
    topo = RegionTopology(
        regions,
        intra_profile=LinkProfile(0.5, 0.3, lan_bandwidth),
        default_profile=LinkProfile(60.0, 0.15, WAN_BANDWIDTH),
    )
    canonical = {
        ("us-east", "eu-west"): LinkProfile(40.0, 0.15, WAN_BANDWIDTH),
        ("us-east", "ap-south"): LinkProfile(90.0, 0.20, WAN_BANDWIDTH),
        ("eu-west", "ap-south"): LinkProfile(65.0, 0.15, WAN_BANDWIDTH),
    }
    for (a, b), profile in canonical.items():
        if a in topo.regions and b in topo.regions:
            topo.set_profile(a, b, profile)
    return topo


# -- message size estimation ---------------------------------------------------


def estimate_wire_size(value: Any, _depth: int = 0) -> int:
    """Deterministic, structural wire-size estimate (bytes) for a payload.

    Strings/bytes count their length, numbers 8 bytes, containers recurse
    (to a bounded depth), and arbitrary objects either answer
    ``__wire_size__()`` or are charged a flat :data:`DEFAULT_OBJECT_BYTES`.
    The estimate never inspects object internals, so it is cheap on the
    send hot path and stable across runs.
    """
    # Exact builtin types first: payloads are made of them, and the general
    # chain below pays an ABC instance check before it knows a plain dict.
    kind = type(value)
    if kind is str:
        return len(value)
    if kind is int or kind is float:
        return 8
    if value is None or kind is bool:
        return 1
    is_mapping = kind is dict
    is_sequence = kind is list or kind is tuple
    if not (is_mapping or is_sequence):
        if isinstance(value, (int, float)):
            return 8
        if isinstance(value, (str, bytes, bytearray)):
            return len(value)
        wire_size = getattr(value, "__wire_size__", None)
        if wire_size is not None:
            return int(wire_size())
        is_mapping = isinstance(value, Mapping)
        is_sequence = isinstance(value, (tuple, list))
    if _depth >= 4 or not (is_mapping or is_sequence):
        return DEFAULT_OBJECT_BYTES
    total = 8
    if is_mapping:
        for key, item in value.items():
            total += estimate_wire_size(key, _depth + 1)
            total += estimate_wire_size(item, _depth + 1)
    else:
        for item in value:
            total += estimate_wire_size(item, _depth + 1)
    return total


def estimate_message_size(payload: Mapping[str, Any]) -> int:
    """Bytes on the wire for one message: framing overhead + payload."""
    return MESSAGE_OVERHEAD_BYTES + estimate_wire_size(payload)


class RegionalLatency(LatencyModel):
    """Latency model backed by a :class:`RegionTopology`.

    Delay = link propagation (base + jitter) plus the message-size /
    bandwidth transfer term of the link (zero on a link that declares no
    bandwidth).  :meth:`sample_message` sizes the payload only on a link
    with a bandwidth and only if the region counters have not.
    """

    def __init__(self, topology: RegionTopology) -> None:
        self.topology = topology

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        profile = self.topology.link(src, dst)[1]
        delay = profile.sample_delay(rng)
        if profile.bandwidth is None:
            return delay
        if size_bytes is None:
            size_bytes = estimate_message_size(payload)
        return delay + profile.transfer_time(size_bytes)
