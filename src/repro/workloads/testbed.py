"""One-call construction of a complete simulated cloud (the *testbed*).

A :class:`Cluster` bundles the environment, network, CA registry, cloud
servers, transaction managers, master version service, OCSP responder, and
policy replicator, all sharing one metrics registry and tracer.  Examples,
tests, and benches build clusters instead of wiring nodes by hand.

The default application has a single administrative domain whose policy
grants ``may_read``/``may_write`` to holders of a ``role(user, 'member')``
credential over every item of the domain — and helpers mint exactly those
credentials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cloud.config import CloudConfig
from repro.cloud.master import MasterVersionService
from repro.cloud.replication import PolicyReplicator, bootstrap_policies
from repro.cloud.server import CloudServer
from repro.cloud.sharding import ShardMap, plan_shards, standby_region
from repro.core.approaches import ProofApproach, get_approach
from repro.core.consistency import ConsistencyLevel
from repro.db.items import ItemCatalog
from repro.errors import SimulationError
from repro.metrics.counters import Metrics
from repro.metrics.stats import TransactionOutcome
from repro.obs.spans import SpanRecorder
from repro.policy.admin import PolicyAdministrator
from repro.policy.credentials import CARegistry, CertificateAuthority, Credential
from repro.policy.ocsp import OCSP_RESPONDER, OCSPResponder
from repro.policy.policy import Policy
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.topology import (
    DEFAULT_REGIONS,
    RegionalLatency,
    RegionTopology,
    default_wan_topology,
)
from repro.sim.tracing import Tracer
from repro.transactions.manager import TransactionManager
from repro.transactions.transaction import Transaction

#: Role required by the default member policy.
MEMBER_ROLE = "member"

#: Value every item of a built testbed starts with.
INITIAL_VALUE = 100.0


def member_policy_rules(items: Iterable[str], role: str = MEMBER_ROLE) -> RuleSet:
    """Default domain policy: members may read and write every listed item.

    The ``item(i)`` facts are part of the policy itself (rules with empty
    bodies), keeping rules range-restricted.
    """
    user, item = Variable("U"), Variable("I")
    rules: List[Rule] = [
        Rule(Atom("may_read", (user, item)), (Atom("role", (user, role)), Atom("item", (item,)))),
        Rule(Atom("may_write", (user, item)), (Atom("role", (user, role)), Atom("item", (item,)))),
    ]
    for key in items:
        rules.append(Rule(Atom("item", (key,))))
    return RuleSet(rules)


@dataclass
class Cluster:
    """A fully wired simulated cloud."""

    env: Environment
    network: Network
    rng: RandomStreams
    #: The world's one observation handle: counters plus every recorder.
    metrics: Metrics
    #: ``metrics.tracer`` and ``metrics.spans``, under their historical names.
    tracer: Tracer
    obs: SpanRecorder
    config: CloudConfig
    registry: CARegistry
    catalog: ItemCatalog
    servers: Dict[str, CloudServer]
    tms: List[TransactionManager]
    master: MasterVersionService
    replicator: PolicyReplicator
    ocsp: OCSPResponder
    admins: Dict[str, PolicyAdministrator]
    #: The CA issuing user credentials in helper methods.
    users_ca: CertificateAuthority
    #: Multi-datacenter layout (region runs only; see docs/scale.md).
    topology: Optional[RegionTopology] = None
    #: Keyspace shard map (multi-region clusters only).
    shards: Optional[ShardMap] = None
    #: Set by :meth:`close`; a closed cluster is read-only.
    closed: bool = False

    # -- lookups ---------------------------------------------------------------

    @property
    def tm(self) -> TransactionManager:
        """The first (usually only) transaction manager."""
        return self.tms[0]

    def server(self, name: str) -> CloudServer:
        return self.servers[name]

    def server_names(self) -> Tuple[str, ...]:
        return tuple(self.servers)

    def admin(self, name: str) -> PolicyAdministrator:
        return self.admins[name]

    def region_of(self, node: str) -> Optional[str]:
        """The region a node is placed in (None on non-topology runs)."""
        return self.topology.region_of(node) if self.topology is not None else None

    def tm_index_for(self, txn: Transaction) -> int:
        """The per-shard coordinator for a transaction's *first* item.

        Multi-region clusters give every shard its own coordinator; a
        transaction is coordinated by the shard of its first query's first
        item (its *home shard* — the scale workload generator puts the
        home-region query first).  Falls back to TM 0 when the cluster has
        no shard map.
        """
        if self.shards is None:
            return 0
        for query in txn.queries:
            for item in query.items:
                return self.shards.tm_index_for(item)
        return 0

    # -- credentials --------------------------------------------------------------

    def issue_role_credential(
        self,
        user: str,
        role: str = MEMBER_ROLE,
        issued_at: float = 0.0,
        expires_at: float = float("inf"),
    ) -> Credential:
        """Mint the credential the default member policy requires."""
        return self.users_ca.issue(user, Atom("role", (user, role)), issued_at, expires_at)

    # -- policy management ------------------------------------------------------------

    def publish(
        self,
        admin_name: str,
        rules: RuleSet,
        description: str = "",
        delays: Optional[Mapping[str, float]] = None,
    ) -> Policy:
        """Publish a new policy version and replicate it.

        The master learns the new version immediately (it is authoritative);
        servers learn after per-server delays — random by default, exact
        when ``delays`` maps server names to delays (tests and benches use
        this to engineer staleness windows).
        """
        policy = self.admins[admin_name].publish(rules, description)
        self.replicator.distribute(policy, delay_override=dict(delays) if delays else None)
        return policy

    # -- running transactions ------------------------------------------------------------

    def submit(
        self,
        txn: Transaction,
        approach: Union[str, ProofApproach],
        consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
        tm_index: int = 0,
    ) -> Process:
        """Submit a transaction to a TM; returns the driving process."""
        self._require_open()
        if isinstance(approach, str):
            approach = get_approach(approach)
        return self.tms[tm_index].submit(txn, approach, consistency)

    def run_transaction(
        self,
        txn: Transaction,
        approach: Union[str, ProofApproach],
        consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
        tm_index: int = 0,
    ) -> TransactionOutcome:
        """Submit and run the simulation until the transaction finishes."""
        process = self.submit(txn, approach, consistency, tm_index)
        return self.env.run(until=process)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the whole simulation."""
        self._require_open()
        self.env.run(until=until)

    # -- end of life ------------------------------------------------------------

    def close(self) -> None:
        """End the simulated world's life; what it recorded stays readable.

        A wired world is cyclic by construction — ``network.nodes`` holds
        the nodes and every node holds the network; the kernel queue holds
        events and every event holds the kernel; an installed nemesis holds
        the cluster and hangs off ``network.chaos``; every RPC deadline
        line in ``network.deadlines`` holds the network's expiry callback —
        so dropping the last reference to a cluster frees nothing until the
        cyclic collector happens to walk it.  ``close()`` cuts exactly those
        links: it empties ``network.nodes``, ``network.chaos`` and
        ``network.deadlines`` and drops the kernel's pending events, after
        which everything dies by reference count the moment the cluster is
        let go.

        Results are untouched: ``metrics``, ``servers``, ``tms``, WALs,
        storage and access logs, ``tracer``, ``obs`` and
        ``master.version_log`` read exactly as before, so :meth:`verify`
        and ``repro.verify.events.collect_run`` work on a closed cluster.  Only
        simulating is over: :meth:`run`, :meth:`submit` and
        :meth:`run_transaction` raise :class:`SimulationError`.
        Idempotent.  Helpers that build a cluster and return only results
        (``run_case``, ``run_point``) call it; a caller that keeps the
        cluster decides for itself.
        """
        self.closed = True
        self.network.nodes.clear()
        self.network.chaos = None
        self.network.deadlines.clear()
        self.env.close()

    def _require_open(self) -> None:
        if self.closed:
            raise SimulationError("cluster is closed: its results are readable, its world is gone")

    # -- verification ------------------------------------------------------------

    def verify(self, raise_on_violation: bool = False) -> Any:
        """Run the trace sanitizer over everything recorded so far.

        Collects the cluster's trace, WALs, and storage access logs into a
        :class:`repro.verify.events.RunRecord`, checks every conformance
        invariant (see docs/correctness.md), folds the result into
        ``metrics.verification``, and returns the
        :class:`repro.verify.report.VerificationReport`.
        """
        # Local import: repro.verify is a consumer layer above the testbed.
        from repro.errors import VerificationError
        from repro.verify import verify_cluster

        report = verify_cluster(self)
        self.metrics.verification.on_report(report)
        if raise_on_violation and report.violations:
            raise VerificationError(report)
        return report


@dataclass(frozen=True)
class ServerSpec:
    """Declarative description of one cloud server for assembly."""

    name: str
    #: item → initial value.
    items: Mapping[str, Any]
    #: administrative domain governing the items.
    admin: str
    #: Region the server is pinned to (topology runs only).
    region: Optional[str] = None


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of one administrative domain."""

    name: str
    rules: RuleSet
    description: str = "initial policy"


def assemble_cluster(
    server_specs: Sequence[ServerSpec],
    domain_specs: Sequence[DomainSpec],
    seed: int = 0,
    config: Optional[CloudConfig] = None,
    n_tms: int = 1,
    trace: bool = True,
    tm_names: Optional[Sequence[str]] = None,
    tm_regions: Optional[Sequence[Optional[str]]] = None,
) -> Cluster:
    """Wire an arbitrary topology: servers, domains, TMs, and services.

    Every domain's version-1 policy is installed on every server before
    time zero (globally consistent start); later publications go through
    :meth:`Cluster.publish` with random or engineered delays.

    When ``config.topology`` is set the cluster becomes region-aware:
    message delays come from a :class:`repro.sim.topology.RegionalLatency`
    built over the topology (``config.latency`` is ignored), every server
    is placed in its spec's region, the master version service / policy
    replicator / OCSP responder are pinned to ``config.master_region``,
    and TMs follow ``tm_regions``.  ``tm_names`` overrides the default
    ``tm1..tmN`` naming (and implies the TM count) so multi-region builds
    can name coordinators after their shards.
    """
    if not server_specs:
        raise SimulationError("need at least one server")
    config = config or CloudConfig()
    topology = config.topology
    latency: Any = config.latency
    if topology is not None:
        latency = RegionalLatency(topology)
    rng = RandomStreams(seed)
    env = Environment()
    metrics = Metrics(
        trace=trace,
        spans=config.obs_spans,
        sample_rate=config.obs_sample_rate,
    )
    if topology is not None:
        metrics.regions.configure(topology)
    if config.live_telemetry:
        # Local import: repro.obs.live sits above repro.metrics and is only
        # needed when the knob is on.
        from repro.obs.live import LiveTelemetry

        live = LiveTelemetry(metrics=metrics)
        if topology is not None:
            live.bind_regions(topology.region_of)
        metrics.live = live
    if config.flight_recorder:
        from repro.obs.flight import FlightRecorder

        metrics.flight = FlightRecorder()
    network = Network(env, metrics, rng=rng.stream("network"), latency=latency)
    registry = CARegistry()
    users_ca = registry.add(CertificateAuthority("users-ca"))
    catalog = ItemCatalog()

    servers: Dict[str, CloudServer] = {}
    for spec in server_specs:
        server = CloudServer(spec.name, config, registry, metrics, default_admin=spec.admin)
        server.host_items(dict(spec.items), admin=spec.admin)
        catalog.assign_all(spec.items, spec.name)
        network.register(server)
        servers[spec.name] = server
        if topology is not None and spec.region is not None:
            topology.place(spec.name, spec.region)

    master = MasterVersionService()
    network.register(master)
    replicator = PolicyReplicator(
        "replicator", rng.stream("replication"), config.replication_delay
    )
    network.register(replicator)
    if topology is not None:
        # Pin the authoritative policy services — the master version
        # service and the replicator feeding it — to the master region.
        master_region = config.master_region or topology.default_region
        topology.place(master.name, master_region)
        topology.place(replicator.name, master_region)
        topology.place(OCSP_RESPONDER, master_region)

    admins: Dict[str, PolicyAdministrator] = {}
    for domain in domain_specs:
        administrator = PolicyAdministrator(domain.name, domain.rules, domain.description)
        master.track(administrator)
        bootstrap_policies(replicator, [administrator], servers.values())
        admins[domain.name] = administrator

    ocsp = OCSPResponder(registry)
    network.register(ocsp)

    if tm_names is not None:
        names = list(tm_names)
    else:
        names = [f"tm{index}" for index in range(1, n_tms + 1)]
    tms = []
    for position, name in enumerate(names):
        tm = TransactionManager(name, config, catalog, metrics)
        network.register(tm)
        tms.append(tm)
        if (
            topology is not None
            and tm_regions is not None
            and position < len(tm_regions)
            and tm_regions[position] is not None
        ):
            topology.place(name, tm_regions[position])  # type: ignore[arg-type]

    return Cluster(
        env=env,
        network=network,
        rng=rng,
        metrics=metrics,
        tracer=metrics.tracer,
        obs=metrics.spans,
        config=config,
        registry=registry,
        catalog=catalog,
        servers=servers,
        tms=tms,
        master=master,
        replicator=replicator,
        ocsp=ocsp,
        admins=admins,
        users_ca=users_ca,
        topology=topology,
    )


def build_cluster(
    n_servers: int = 3,
    items_per_server: int = 4,
    seed: int = 0,
    config: Optional[CloudConfig] = None,
    admin_name: str = "app",
    n_tms: int = 1,
    trace: bool = True,
) -> Cluster:
    """Construct the canonical single-domain testbed.

    Servers are named ``s1..sN`` and host items ``s<i>/x<j>`` with value
    :data:`INITIAL_VALUE`.  One administrative domain (``admin_name``) governs
    every item with the member policy (version 1), installed consistently on
    every server before time zero.
    """
    if n_servers < 1:
        raise SimulationError("need at least one server")
    server_specs = []
    all_items: List[str] = []
    for index in range(1, n_servers + 1):
        name = f"s{index}"
        items = {f"{name}/x{j}": INITIAL_VALUE for j in range(1, items_per_server + 1)}
        server_specs.append(ServerSpec(name, items, admin_name))
        all_items.extend(items)
    domain = DomainSpec(admin_name, member_policy_rules(all_items), "initial member policy")
    return assemble_cluster(
        server_specs,
        [domain],
        seed=seed,
        config=config,
        n_tms=n_tms,
        trace=trace,
    )


def build_multiregion_cluster(
    regions: Sequence[str] = DEFAULT_REGIONS,
    shards_per_region: int = 2,
    items_per_shard: int = 16,
    replication_factor: int = 2,
    seed: int = 0,
    config: Optional[CloudConfig] = None,
    trace: bool = True,
) -> Cluster:
    """Construct the planet-scale testbed: regions × shards × replica groups.

    The keyspace is split into ``len(regions) · shards_per_region`` shards
    (see :func:`repro.cloud.sharding.plan_shards`).  Each shard gets

    * a **primary** cloud server in its home region hosting its items,
    * ``replication_factor − 1`` **standby** servers placed round-robin
      across the other regions (policy replicas; they host no data items),
    * a dedicated **coordinator** TM pinned to the home region, and
    * membership in its region's administrative domain ``app-<region>``
      (one policy domain per region, so policy storms are regional).

    The master version service, the replicator, and the OCSP responder
    are pinned to the region ``config.master_region`` names (the first
    region when it is ``None``), which is what makes commits from other
    regions pay WAN round trips on every master-version fetch.  The
    resulting :class:`Cluster` carries its
    :class:`~repro.sim.topology.RegionTopology` and
    :class:`~repro.cloud.sharding.ShardMap`; everything else — metrics,
    tracing, spans, ``Cluster.verify()`` — works exactly as on
    single-datacenter clusters.
    """
    regions = tuple(regions)
    base = config or CloudConfig()
    topology = base.topology or default_wan_topology(regions)
    pinned = base.master_region or topology.default_region
    # Copy rather than mutate: the caller's config object stays untouched.
    config = replace(base, topology=topology, master_region=pinned)

    shard_specs = plan_shards(
        regions, shards_per_region, items_per_shard, replication_factor=replication_factor
    )
    server_specs: List[ServerSpec] = []
    items_by_region: Dict[str, List[str]] = {region: [] for region in regions}
    for shard in shard_specs:
        values = {item: INITIAL_VALUE for item in shard.items}
        server_specs.append(ServerSpec(shard.primary, values, shard.admin, shard.region))
        items_by_region[shard.region].extend(shard.items)
        for index, replica in enumerate(shard.replicas):
            server_specs.append(
                ServerSpec(
                    replica,
                    {},
                    shard.admin,
                    standby_region(shard.region, regions, index),
                )
            )
    domain_specs = [
        DomainSpec(
            f"app-{region}",
            member_policy_rules(items_by_region[region]),
            f"initial member policy ({region})",
        )
        for region in regions
    ]
    cluster = assemble_cluster(
        server_specs,
        domain_specs,
        seed=seed,
        config=config,
        trace=trace,
        tm_names=[shard.coordinator for shard in shard_specs],
        tm_regions=[shard.region for shard in shard_specs],
    )
    cluster.shards = ShardMap(shard_specs)
    return cluster
