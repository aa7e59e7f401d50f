"""Keyspace sharding across replica groups.

The scale testbed partitions the keyspace into *shards*.  Each shard is
owned by a replica group: a **primary** cloud server in the shard's home
region that hosts the shard's items (the paper's model keeps every item on
exactly one server, Section III-A), plus **standby replicas** pinned to
other regions.  Standbys are real, registered cloud servers: they receive
every policy publication through the eventually-consistent replicator —
so policy storms generate genuine cross-region traffic — and they give
placement/failover experiments a substrate, but they serve no data
queries.  Each shard also has a dedicated **coordinator** (transaction
manager) pinned to its home region, so commits for remote-master shards
pay WAN round trips on every master-version fetch.

:class:`ShardMap` is the routing structure: item → shard, shard →
(primary, replicas, coordinator, admin domain).  It is built once by
:func:`repro.workloads.testbed.build_multiregion_cluster` and attached to
the cluster; workload generators draw keys through it.
"""

from __future__ import annotations

import sys

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class ShardSpec:
    """One shard: its keyspace slice, replica group, and coordinator."""

    shard_id: int
    #: Home region — where the primary and the coordinator live.
    region: str
    #: Server hosting the shard's items.
    primary: str
    #: Standby servers in other regions (policy replicas, no data items).
    replicas: Tuple[str, ...]
    #: Transaction manager coordinating this shard's transactions.
    coordinator: str
    #: Index of ``coordinator`` in the cluster's TM list.
    tm_index: int
    #: Administrative domain governing the shard's items.
    admin: str
    #: The shard's keyspace slice.
    items: Tuple[str, ...]

    @property
    def group(self) -> Tuple[str, ...]:
        """The full replica group, primary first."""
        return (self.primary,) + self.replicas


class ShardMap:
    """Item → shard routing plus per-region shard lookups."""

    def __init__(self, shards: Sequence[ShardSpec]) -> None:
        if not shards:
            raise SimulationError("a shard map needs at least one shard")
        self.shards: Tuple[ShardSpec, ...] = tuple(shards)
        self._by_item: Dict[str, ShardSpec] = {}
        self._by_region: Dict[str, List[ShardSpec]] = {}
        for shard in self.shards:
            for item in shard.items:
                existing = self._by_item.get(item)
                if existing is not None:
                    raise SimulationError(
                        f"item {item!r} in shards {existing.shard_id} and {shard.shard_id}"
                    )
                self._by_item[item] = shard
            self._by_region.setdefault(shard.region, []).append(shard)

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    @property
    def regions(self) -> Tuple[str, ...]:
        """Regions hosting at least one shard, in shard order."""
        return tuple(self._by_region)

    def shard_of(self, item: str) -> ShardSpec:
        """The shard owning an item."""
        try:
            return self._by_item[item]
        except KeyError:
            raise SimulationError(f"item {item!r} belongs to no shard") from None

    def shards_in(self, region: str) -> Tuple[ShardSpec, ...]:
        """All shards homed in a region."""
        return tuple(self._by_region.get(region, ()))

    def tm_index_for(self, item: str) -> int:
        """The TM index coordinating an item's shard."""
        return self.shard_of(item).tm_index

    def items(self) -> Tuple[str, ...]:
        """Every item across every shard, in shard order."""
        return tuple(
            item for shard in self.shards for item in shard.items
        )

    def standbys(self) -> Tuple[str, ...]:
        """Every standby replica across every group, in shard order."""
        return tuple(name for shard in self.shards for name in shard.replicas)


def plan_shards(
    regions: Sequence[str],
    shards_per_region: int,
    items_per_shard: int,
    replication_factor: int = 1,
    admin_for_region: Optional[Dict[str, str]] = None,
) -> List[ShardSpec]:
    """Lay out a symmetric multi-region shard plan.

    Shard ``k`` of region ``r`` gets primary ``{r}-s{k}``, coordinator
    ``tm-{r}-s{k}``, items ``{r}-s{k}/x{j}``, and — when
    ``replication_factor`` > 1 — standby replicas ``{r}-s{k}-r{m}`` placed
    round-robin across the *other* regions.  TM indexes follow the shard
    enumeration order (region-major), matching the order
    :func:`repro.workloads.testbed.build_multiregion_cluster` registers
    the managers in.
    """
    if shards_per_region < 1:
        raise SimulationError("need at least one shard per region")
    if items_per_shard < 1:
        raise SimulationError("need at least one item per shard")
    if replication_factor < 1:
        raise SimulationError("replication factor must be >= 1")
    regions = list(regions)
    if not regions:
        raise SimulationError("need at least one region")
    shards: List[ShardSpec] = []
    shard_id = 0
    intern = sys.intern
    for region in regions:
        for k in range(1, shards_per_region + 1):
            # Item/node names are interned at creation: they key the lock
            # tables, storage dicts, and shard lookups on every query, so
            # unified string objects keep those lookups on the identity
            # fast path even when a name is later reconstructed.
            base = intern(f"{region}-s{k}")
            replicas = tuple(
                intern(f"{base}-r{m + 1}")
                for m in range(replication_factor - 1)
            )
            items = tuple(intern(f"{base}/x{j}") for j in range(1, items_per_shard + 1))
            admin = intern((admin_for_region or {}).get(region, f"app-{region}"))
            shards.append(
                ShardSpec(
                    shard_id=shard_id,
                    region=region,
                    primary=base,
                    replicas=replicas,
                    coordinator=intern(f"tm-{base}"),
                    tm_index=shard_id,
                    admin=admin,
                    items=items,
                )
            )
            shard_id += 1
    return shards


def standby_region(
    home: str, regions: Sequence[str], replica_index: int
) -> str:
    """Round-robin region assignment for standby ``replica_index`` (0-based)."""
    others = [region for region in regions if region != home]
    if not others:
        return home
    return others[replica_index % len(others)]
