"""Unit tests for the master version service, replicator, and server wiring."""

import pytest

from repro.cloud.config import CloudConfig
from repro.cloud.master import MasterVersionService
from repro.errors import PolicyError
from repro.policy.admin import PolicyAdministrator
from repro.policy.policy import Operation, PolicyId
from repro.policy.rules import Atom, Rule, RuleSet
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import benign_successor


def simple_rules(marker="a"):
    return RuleSet([Rule(Atom(f"m_{marker}", ()))])


class TestMasterService:
    def test_tracks_current_version(self):
        admin = PolicyAdministrator("app", simple_rules())
        master = MasterVersionService()
        master.track(admin)
        assert master.latest_version(PolicyId("app")) == 1

    def test_sees_publications_immediately(self):
        admin = PolicyAdministrator("app", simple_rules())
        master = MasterVersionService()
        master.track(admin)
        admin.publish(simple_rules("b"))
        assert master.latest_version(PolicyId("app")) == 2
        assert master.latest_policy(PolicyId("app")).version == 2

    def test_unknown_domain_raises(self):
        master = MasterVersionService()
        with pytest.raises(PolicyError):
            master.latest_version(PolicyId("ghost"))


class TestReplicator:
    def test_engineered_delays_control_arrival(self):
        cluster = build_cluster(
            n_servers=2, seed=9, config=CloudConfig(latency=FixedLatency(1.0))
        )
        pid = PolicyId("app")
        cluster.publish(
            "app",
            benign_successor(cluster.admin("app").current),
            delays={"s1": 5.0, "s2": 50.0},
        )
        cluster.run(until=10.0)
        assert cluster.server("s1").policies.version_of(pid) == 2
        assert cluster.server("s2").policies.version_of(pid) == 1
        cluster.run(until=60.0)
        assert cluster.server("s2").policies.version_of(pid) == 2

    def test_master_is_ahead_of_servers_during_propagation(self):
        cluster = build_cluster(
            n_servers=2, seed=9, config=CloudConfig(latency=FixedLatency(1.0))
        )
        pid = PolicyId("app")
        cluster.publish(
            "app",
            benign_successor(cluster.admin("app").current),
            delays={"s1": 100.0, "s2": 100.0},
        )
        assert cluster.master.latest_version(pid) == 2
        assert cluster.server("s1").policies.version_of(pid) == 1

    def test_out_of_order_versions_converge(self):
        cluster = build_cluster(
            n_servers=1, seed=9, config=CloudConfig(latency=FixedLatency(1.0))
        )
        pid = PolicyId("app")
        # v2 is slow, v3 is fast: the server sees v3 first, then ignores v2.
        cluster.publish("app", benign_successor(cluster.admin("app").current),
                        delays={"s1": 50.0})
        cluster.publish("app", benign_successor(cluster.admin("app").current),
                        delays={"s1": 5.0})
        cluster.run(until=100.0)
        assert cluster.server("s1").policies.version_of(pid) == 3


class TestServerWiring:
    def test_admin_for_single_domain(self):
        cluster = build_cluster(n_servers=1, seed=1)
        server = cluster.server("s1")
        query = Query.read("q", ["s1/x1"])
        assert server.admin_for(query) == PolicyId("app")

    def test_admin_for_returns_one_policy_id_per_domain(self):
        cluster = build_cluster(n_servers=1, seed=1)
        server = cluster.server("s1")
        server.domain_of["s1/x3"] = "other"
        first = server.admin_for(Query.read("q1", ["s1/x1"]))
        assert server.admin_for(Query.write("q2", {"s1/x2": 5})) is first
        other = server.admin_for(Query.read("q3", ["s1/x3"]))
        assert other == PolicyId("other") and server.admin_for(Query.read("q4", ["s1/x3"])) is other

    def test_admin_for_mixed_domains_rejected(self):
        cluster = build_cluster(n_servers=1, seed=1)
        server = cluster.server("s1")
        server.domain_of["s1/x2"] = "other"
        with pytest.raises(PolicyError):
            server.admin_for(Query.read("q", ["s1/x1", "s1/x2"]))

    def test_capability_issue_and_verify(self):
        cluster = build_cluster(n_servers=1, seed=1)
        server = cluster.server("s1")
        capability = server.issue_capability("bob", "s1/x1", Operation.READ, now=5.0)
        assert capability.atom == Atom("read_capability", ("bob", "s1/x1"))
        assert cluster.registry.verify_signature(capability)

    def test_cross_server_capability_verification(self):
        """Servers can verify access credentials issued by each other."""
        cluster = build_cluster(n_servers=2, seed=1)
        capability = cluster.server("s1").issue_capability(
            "bob", "s1/x1", Operation.READ, now=5.0
        )
        ok, reason = cluster.registry.syntactically_valid(capability, now=6.0)
        assert ok, reason
