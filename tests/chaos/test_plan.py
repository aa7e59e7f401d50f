"""Fault-plan data model: validation, windows, serialization, generation."""

import json
import math
import random

import pytest

from repro.chaos.plan import FAULT_KINDS, FaultPlan, FaultSpec, partition, random_plan
from repro.errors import SimulationError


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec("meteor_strike")

    def test_crash_needs_node(self):
        with pytest.raises(SimulationError):
            FaultSpec("crash", at=5.0)

    def test_policy_churn_needs_admin(self):
        with pytest.raises(SimulationError):
            FaultSpec("policy_churn", at=5.0)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_drop_rate_bounds(self, rate):
        with pytest.raises(SimulationError):
            FaultSpec("drop_rate", duration=10.0, rate=rate)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(kind="crash", node="s1", at=5.0, down_for=-1.0), "down_for"),
            (dict(kind="crash", node="s1", at=5.0, down_for=0.0), "down_for"),
            (dict(kind="crash", node="s1", at=-2.0), "at"),
            (dict(kind="crash", node="s1", at=math.nan), "at"),
            (dict(kind="crash", node="s1", at=math.inf), "at"),
            (dict(kind="drop_link", src="tm1", dst="s1", at=2.0, duration=-3.0), "duration"),
            (dict(kind="drop_rate", at=2.0, rate=0.1), "duration"),
            (dict(kind="delay", at=1.0, duration=math.nan, delay=1.0), "duration"),
            (dict(kind="delay", at=1.0, duration=2.0, delay=-1.0), "delay"),
            (dict(kind="policy_churn", admin="app", at=1.0, delay=-0.5), "delay"),
        ],
    )
    def test_out_of_range_values_are_refused_by_name(self, kwargs, field):
        """Each of these used to construct, then stalled or crashed the run."""
        with pytest.raises(SimulationError, match=f"'{field}'"):
            FaultSpec(**kwargs)

    def test_open_ended_windows_and_zero_delays_are_accepted(self):
        FaultSpec("drop_rate", at=0.0, duration=math.inf, rate=0.5)
        FaultSpec("delay", at=0.0, duration=1.0, delay=0.0)
        FaultSpec("policy_churn", at=0.0, admin="app")
        FaultSpec("crash", at=0.0, node="s1", down_for=None)

    def test_window_half_open(self):
        spec = FaultSpec("drop_rate", at=10.0, duration=5.0, rate=0.5)
        assert not spec.active(9.999)
        assert spec.active(10.0)
        assert spec.active(14.999)
        assert not spec.active(15.0)

    def test_every_kind_has_a_description(self):
        samples = {
            "drop_link": FaultSpec("drop_link", at=1.0, duration=2.0, src="s1"),
            "drop_rate": FaultSpec("drop_rate", at=1.0, duration=2.0, rate=0.05),
            "delay": FaultSpec("delay", at=1.0, duration=2.0, delay=3.0),
            "crash": FaultSpec("crash", at=1.0, node="s2", on_kind="2pvc.vote"),
            "policy_churn": FaultSpec("policy_churn", at=1.0, admin="app", revoke=True),
        }
        assert set(samples) == set(FAULT_KINDS)
        for spec in samples.values():
            assert spec.describe()


MIXED = FaultPlan(
    (
        FaultSpec("drop_rate", at=0.0, duration=80.0, rate=0.02),
        FaultSpec("drop_link", at=5.0, duration=10.0, src="s1", dst="s2"),
        FaultSpec("delay", at=8.0, duration=4.0, delay=2.5, dst="s3"),
        FaultSpec("crash", at=20.0, node="s2", on_kind="2pvc.vote", down_for=30.0),
        FaultSpec("policy_churn", at=12.0, admin="app", delay=40.0, revoke=True),
    ),
    label="mixed",
)


class TestFaultPlan:
    def test_json_round_trip_is_identity(self):
        assert FaultPlan.from_json(MIXED.to_json()) == MIXED

    def test_json_text_is_stable(self):
        """Saved counterexamples keep their exact bytes: defaults omitted,
        keys sorted, ``node`` / ``admin`` / ``rate`` written when set."""
        faults = [
            '{"duration": 80.0, "kind": "drop_rate", "rate": 0.02}',
            '{"at": 5.0, "dst": "s2", "duration": 10.0, "kind": "drop_link", "src": "s1"}',
            '{"at": 8.0, "delay": 2.5, "dst": "s3", "duration": 4.0, "kind": "delay"}',
            '{"at": 20.0, "down_for": 30.0, "kind": "crash", "node": "s2", '
            '"on_kind": "2pvc.vote"}',
            '{"admin": "app", "at": 12.0, "delay": 40.0, "kind": "policy_churn", "revoke": true}',
        ]
        expected = {"faults": [json.loads(text) for text in faults], "label": "mixed"}
        assert MIXED.to_json() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_to_dict_omits_defaults(self):
        record = FaultSpec("drop_rate", at=3.0, duration=9.0, rate=0.1).to_dict()
        assert record == {"kind": "drop_rate", "at": 3.0, "duration": 9.0, "rate": 0.1}

    def test_without_drops_positions(self):
        reduced = MIXED.without([0, 3])
        assert len(reduced) == 3
        assert reduced.specs == (MIXED.specs[1], MIXED.specs[2], MIXED.specs[4])
        assert reduced.label == "mixed"

    def test_by_kind_filters(self):
        assert MIXED.by_kind("crash") == (MIXED.specs[3],)

    def test_describe_lists_every_fault(self):
        assert len(MIXED.describe().splitlines()) == len(MIXED)
        assert FaultPlan().describe() == "(no faults)"

    def test_partition_is_symmetric(self):
        specs = partition(["s1"], ["s2", "s3"], at=4.0, duration=6.0)
        pairs = {(spec.src, spec.dst) for spec in specs}
        assert pairs == {("s1", "s2"), ("s2", "s1"), ("s1", "s3"), ("s3", "s1")}
        assert all(spec.kind == "drop_link" for spec in specs)


class TestRandomPlan:
    def test_same_rng_seed_same_plan(self):
        draw = lambda: random_plan(
            random.Random(42), ["s1", "s2", "s3"], ["app"], horizon=60.0, n_faults=5
        )
        assert draw() == draw()

    def test_different_seeds_differ(self):
        plans = {
            random_plan(
                random.Random(seed), ["s1", "s2", "s3"], ["app"], 60.0, n_faults=5
            )
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_protected_nodes_never_crash(self):
        for seed in range(20):
            plan = random_plan(
                random.Random(seed),
                ["s1", "s2"],
                ["app"],
                60.0,
                n_faults=4,
                protected=["s1"],
            )
            assert all(spec.node != "s1" for spec in plan.by_kind("crash"))

    def test_specs_sorted_by_time(self):
        plan = random_plan(random.Random(7), ["s1", "s2"], ["app"], 60.0, n_faults=6)
        times = [spec.at for spec in plan]
        assert times == sorted(times)
