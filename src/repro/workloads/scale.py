"""Planet-scale workload generation: Zipfian keys, Poisson users, storms.

The Table-I benches replay tens of transactions; the scale bench replays
tens of thousands.  This module generates that load deterministically:

* :class:`ZipfianSampler` — rank-frequency key popularity (precomputed
  CDF + bisection, so sampling is O(log n) and bit-stable under a seed);
* :class:`ScaleWorkloadSpec` + :func:`generate_scale_workload` — an open
  Poisson arrival process of *users*, each submitting transactions whose
  queries pick a shard (home region with probability ``locality``) and
  then a Zipf-hot item within it;
* :func:`storm_schedule` + :class:`PolicyStormProcess` — per-region
  *policy-update storms*: bursts of rapid-fire policy publications
  against one region's administrative domain, the adversarial regime for
  the consistency machinery (replication lag ⇒ stale votes ⇒ extra 2PV
  rounds or aborts, depending on the approach).

Everything draws from explicitly passed ``random.Random`` streams, so a
fixed seed reproduces the workload bit-for-bit (asserted by
``tests/workloads/test_scale_workload.py``).
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Generator, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.sharding import ShardMap, ShardSpec
from repro.errors import SimulationError
from repro.policy.credentials import Credential
from repro.sim.events import Event
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import Cluster
from repro.workloads.updates import benign_successor, restricting_successor


class ZipfianSampler:
    """Zipf(s) over ranks ``0..n−1`` via inverse-CDF sampling.

    Rank ``k`` is drawn with probability proportional to ``1/(k+1)^s``.
    ``s = 0`` degenerates to uniform; ``s ≈ 1`` gives classic web-like
    skew (the top rank absorbs ~⅕ of the mass at n = 100).  The CDF is
    precomputed once, sampling costs one RNG draw plus a bisection, and
    identical (n, s, seed) triples yield identical draw sequences.
    """

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise SimulationError("Zipf needs at least one rank")
        if s < 0:
            raise SimulationError("Zipf skew must be non-negative")
        self.n = n
        self.s = s
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift at the top
        self._cdf = cdf

    def sample(self, rng: random.Random) -> int:
        """Draw a rank (0-based; rank 0 is the hottest)."""
        return bisect_left(self._cdf, rng.random())


@dataclass
class ScaleWorkloadSpec:
    """Parameters of the multi-region open-loop workload."""

    #: Simulated users; each arrives once (Poisson) and submits
    #: ``txns_per_user`` transactions.
    n_users: int = 1000
    #: Aggregate user-arrival rate (users per simulation unit).
    arrival_rate: float = 4.0
    txns_per_user: int = 1
    #: Queries per transaction.  The first query always targets the home
    #: region (it anchors the coordinator choice); subsequent queries go
    #: remote with probability ``1 − locality``.
    txn_length: int = 2
    read_fraction: float = 0.8
    write_delta_bound: float = 5.0
    #: Zipf skew over items within a shard (0 = uniform).
    zipf_skew: float = 0.9
    #: Probability a non-anchor query stays in the user's home region.
    locality: float = 0.9
    #: Home-region mix; None = uniform over the shard map's regions.
    region_weights: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise SimulationError("need at least one user")
        if self.arrival_rate <= 0:
            raise SimulationError("arrival rate must be positive")
        if self.txn_length < 1:
            raise SimulationError("txn_length must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise SimulationError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.locality <= 1.0:
            raise SimulationError("locality must be in [0, 1]")


@dataclass(frozen=True)
class ScheduledTransaction:
    """One generated transaction with its arrival time and placement."""

    arrival: float
    txn: Transaction
    user: str
    home_region: str
    #: TM index of the home shard's coordinator.
    tm_index: int


def _weighted_region(
    rng: random.Random, regions: Sequence[str], weights: Optional[Mapping[str, float]]
) -> str:
    if weights is None:
        return regions[int(rng.random() * len(regions)) % len(regions)]
    total = sum(weights.get(region, 0.0) for region in regions)
    if total <= 0:
        raise SimulationError("region weights must sum to a positive value")
    draw = rng.random() * total
    acc = 0.0
    for region in regions:
        acc += weights.get(region, 0.0)
        if draw < acc:
            return region
    return regions[-1]


def iter_scale_workload(
    spec: ScaleWorkloadSpec,
    shards: ShardMap,
    rng: random.Random,
    credentials: Mapping[str, Sequence[Credential]],
    id_prefix: str = "u",
) -> Generator[ScheduledTransaction, None, None]:
    """The deterministic workload as a lazy stream, in arrival order.

    Yields exactly what :func:`generate_scale_workload` lists, one
    transaction at a time — feed it straight into
    :meth:`repro.workloads.runner.OpenLoopRunner.run_scheduled` and, with
    streaming metrics on, the schedule never materializes: peak memory is
    bounded by in-flight transactions regardless of ``n_users``.  The RNG
    is consumed as the stream is drawn, so consume it in order (or use the
    list-building wrapper) to keep runs bit-reproducible.

    ``credentials`` maps each user name (``u0 .. u{n_users−1}``) to the
    credentials their transactions carry — mint them once with
    :func:`mint_user_credentials` and reuse the mapping across approaches
    so every approach replays the *same* users.

    Item choice: the user's home region is drawn from ``region_weights``;
    each query picks a region (home w.p. ``locality``, else uniform over
    the others), a uniform shard within it, and a Zipf-ranked item within
    the shard.  Items are de-duplicated within a transaction (re-drawn on
    collision, bounded) so a transaction never self-deadlocks.
    """
    regions = list(shards.regions)
    if not regions:
        raise SimulationError("shard map has no regions")
    samplers: Dict[int, ZipfianSampler] = {
        shard.shard_id: ZipfianSampler(len(shard.items), spec.zipf_skew)
        for shard in shards
    }
    now = 0.0
    intern = sys.intern
    for index in range(spec.n_users):
        now += rng.expovariate(spec.arrival_rate)
        # Interned at creation so every later dict lookup keyed by these
        # ids (TM tables, metrics, span indexes) hits the identity path.
        user = intern(f"{id_prefix}{index}")
        creds = tuple(credentials[user])
        home = _weighted_region(rng, regions, spec.region_weights)
        for t in range(spec.txns_per_user):
            txn_id = intern(f"{user}-t{t + 1}")
            chosen: List[str] = []
            queries: List[Query] = []
            for position in range(spec.txn_length):
                if position == 0:
                    region = home
                elif rng.random() < spec.locality:
                    region = home
                else:
                    others = [r for r in regions if r != home] or [home]
                    region = others[int(rng.random() * len(others)) % len(others)]
                region_shards = shards.shards_in(region)
                item = _draw_item(rng, region_shards, samplers, chosen)
                chosen.append(item)
                query_id = intern(f"{txn_id}-q{position + 1}")
                if rng.random() < spec.read_fraction:
                    queries.append(Query.read(query_id, [item]))
                else:
                    delta = rng.uniform(-spec.write_delta_bound, spec.write_delta_bound)
                    queries.append(Query.write(query_id, deltas={item: delta}))
            txn = Transaction(txn_id, user, tuple(queries), creds)
            yield ScheduledTransaction(
                arrival=now,
                txn=txn,
                user=user,
                home_region=home,
                tm_index=shards.tm_index_for(chosen[0]),
            )


def generate_scale_workload(
    spec: ScaleWorkloadSpec,
    shards: ShardMap,
    rng: random.Random,
    credentials: Mapping[str, Sequence[Credential]],
    id_prefix: str = "u",
) -> List[ScheduledTransaction]:
    """The full deterministic workload as a list (see :func:`iter_scale_workload`)."""
    return list(iter_scale_workload(spec, shards, rng, credentials, id_prefix))


def _draw_item(
    rng: random.Random,
    region_shards: Sequence[ShardSpec],
    samplers: Mapping[int, ZipfianSampler],
    taken: Sequence[str],
) -> str:
    """A shard-then-Zipf item draw, avoiding items already in the txn."""
    if not region_shards:
        raise SimulationError("region hosts no shards")
    for _attempt in range(16):
        shard = region_shards[int(rng.random() * len(region_shards)) % len(region_shards)]
        item = shard.items[samplers[shard.shard_id].sample(rng)]
        if item not in taken:
            return item
    # Pathologically small keyspace: fall back to the first free item.
    for shard in region_shards:
        for item in shard.items:
            if item not in taken:
                return item
    raise SimulationError("not enough distinct items for one transaction")


def mint_user_credentials(
    cluster: Cluster, n_users: int, id_prefix: str = "u", role: str = "member"
) -> Dict[str, Tuple[Credential, ...]]:
    """Issue one role credential per simulated user."""
    minted: Dict[str, Tuple[Credential, ...]] = {}
    for index in range(n_users):
        user = sys.intern(f"{id_prefix}{index}")
        minted[user] = (cluster.issue_role_credential(user, role=role),)
    return minted


# -- policy-update storms ------------------------------------------------------


@dataclass(frozen=True)
class PolicyStorm:
    """One burst of rapid-fire policy updates against one region's domain."""

    region: str
    at: float
    updates: int
    spacing: float = 1.0
    #: ``"benign"`` (version churn) or ``"restrict"`` (tighten to
    #: ``role`` for the storm, restore afterwards).
    mode: str = "benign"
    role: str = "senior"


def storm_schedule(
    regions: Sequence[str],
    rng: random.Random,
    horizon: float,
    mean_interval: float,
    updates_per_storm: int = 3,
    spacing: float = 2.0,
    mode: str = "benign",
) -> List[PolicyStorm]:
    """Independent Poisson storm arrivals per region over ``[0, horizon]``.

    Regions are processed in the given order and each consumes its own
    sequence of draws, so the schedule is deterministic in (inputs, seed).
    The returned list is sorted by start time.
    """
    if mean_interval <= 0 or horizon <= 0:
        raise SimulationError("horizon and mean interval must be positive")
    storms: List[PolicyStorm] = []
    for region in regions:
        now = 0.0
        while True:
            now += rng.expovariate(1.0 / mean_interval)
            if now >= horizon:
                break
            storms.append(
                PolicyStorm(
                    region=region,
                    at=now,
                    updates=updates_per_storm,
                    spacing=spacing,
                    mode=mode,
                )
            )
    storms.sort(key=lambda storm: (storm.at, storm.region))
    return storms


class PolicyStormProcess:
    """Replays a storm schedule against a cluster's per-region domains.

    Each storm publishes ``updates`` successors of the region's current
    policy, ``spacing`` time units apart.  Benign storms move only the
    version number; restricting storms tighten the member policy to
    ``role`` and the storm's last update restores member access.  All
    publications flow through :meth:`Cluster.publish`, i.e. through the
    eventually-consistent replicator with random per-server delays — so a
    storm opens real staleness windows on every server of the domain.
    """

    def __init__(
        self,
        cluster: Cluster,
        storms: Sequence[PolicyStorm],
        admin_for_region: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.cluster = cluster
        self.storms = list(storms)
        self.admin_for_region = dict(admin_for_region or {})
        self.published = 0

    def _admin(self, region: str) -> str:
        return self.admin_for_region.get(region, f"app-{region}")

    def start(self) -> "Process":  # noqa: F821 - repro.sim.process.Process
        return self.cluster.env.process(self._run(), name="policy-storms")

    def _run(self) -> Generator[Event, None, None]:
        from repro.workloads.testbed import MEMBER_ROLE  # local import: avoid cycle

        for storm in self.storms:
            delay = storm.at - self.cluster.env.now
            if delay > 0:
                yield self.cluster.env.timeout(delay)
            admin_name = self._admin(storm.region)
            for step in range(storm.updates):
                current = self.cluster.admin(admin_name).current
                if storm.mode == "benign":
                    rules = benign_successor(current)
                elif step == storm.updates - 1:
                    rules = restricting_successor(current, MEMBER_ROLE)
                else:
                    rules = restricting_successor(current, storm.role)
                self.cluster.publish(
                    admin_name, rules, description=f"storm@{storm.at:.1f}#{step + 1}"
                )
                self.published += 1
                self.cluster.metrics.policy_published(storm.region, self.cluster.env.now)
                if step < storm.updates - 1 and storm.spacing > 0:
                    yield self.cluster.env.timeout(storm.spacing)
