"""Unit tests for policies, stores, and administrators."""

import pytest

from repro.errors import PolicyError
from repro.policy.admin import PolicyAdministrator
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId, ver
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.policy.store import PolicyStore

X = Variable("X")


def simple_rules(marker="a"):
    return RuleSet([Rule(Atom(f"marker_{marker}", ()))])


@pytest.fixture
def policy():
    return Policy(PolicyId("app"), 1, simple_rules())


class TestPolicy:
    def test_negative_version_rejected(self):
        with pytest.raises(PolicyError):
            Policy(PolicyId("app"), -1, simple_rules())

    def test_ver_function(self, policy):
        assert ver(policy) == 1

    def test_successor_bumps_version(self, policy):
        successor = policy.successor(simple_rules("b"))
        assert successor.version == 2
        assert successor.policy_id == policy.policy_id

    def test_goal_uses_guard_predicates(self, policy):
        goal = policy.goal(Operation.READ, "bob", "item-1")
        assert goal == Atom(GUARD_PREDICATES[Operation.READ], ("bob", "item-1"))

    def test_admin_shortcut(self, policy):
        assert policy.admin == "app"


class TestPolicyStore:
    def test_apply_installs(self, policy):
        store = PolicyStore()
        assert store.apply(policy)
        assert store.current(policy.policy_id) is policy

    def test_stale_version_ignored(self, policy):
        store = PolicyStore([policy.successor(simple_rules("b"))])
        assert not store.apply(policy)  # v1 after v2
        assert store.version_of(policy.policy_id) == 2

    def test_duplicate_version_ignored(self, policy):
        store = PolicyStore([policy])
        assert not store.apply(policy)

    def test_out_of_order_delivery_converges(self, policy):
        v2 = policy.successor(simple_rules("b"))
        v3 = v2.successor(simple_rules("c"))
        store = PolicyStore()
        for incoming in (v3, policy, v2):  # arbitrary arrival order
            store.apply(incoming)
        assert store.version_of(policy.policy_id) == 3

    def test_missing_domain_raises(self):
        store = PolicyStore()
        with pytest.raises(PolicyError):
            store.current(PolicyId("ghost"))

    def test_versions_snapshot(self, policy):
        other = Policy(PolicyId("hr"), 5, simple_rules("x"))
        store = PolicyStore([policy, other])
        assert store.versions() == {PolicyId("app"): 1, PolicyId("hr"): 5}

    def test_contains_and_len(self, policy):
        store = PolicyStore([policy])
        assert policy.policy_id in store
        assert len(store) == 1


class TestAdministrator:
    def test_initial_version_is_one(self):
        admin = PolicyAdministrator("app", simple_rules())
        assert admin.latest_version == 1

    def test_publish_increments_version(self):
        admin = PolicyAdministrator("app", simple_rules())
        admin.publish(simple_rules("b"))
        admin.publish(simple_rules("c"))
        assert admin.latest_version == 3
        assert [policy.version for policy in admin.history()] == [1, 2, 3]

    def test_publish_notifies_hooks(self):
        admin = PolicyAdministrator("app", simple_rules())
        seen = []
        admin.on_publish(lambda policy: seen.append(policy.version))
        admin.publish(simple_rules("b"))
        assert seen == [2]

    def test_version_lookup(self):
        admin = PolicyAdministrator("app", simple_rules())
        admin.publish(simple_rules("b"))
        assert admin.version(1).version == 1
        assert admin.version(2) is admin.current
        with pytest.raises(PolicyError):
            admin.version(99)

    @pytest.mark.parametrize("number", [0, -1, 3])
    def test_version_lookup_rejects_numbers_never_published(self, number):
        # Versions are dense from 1: an unchecked ``_history[number - 1]``
        # would answer 0 with the latest version and -1 with an older one.
        admin = PolicyAdministrator("app", simple_rules())
        admin.publish(simple_rules("b"))
        with pytest.raises(PolicyError):
            admin.version(number)
