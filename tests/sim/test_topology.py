"""Region topology: link profiles, placement, and sized message delays."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim import topology
from repro.sim.topology import (
    DEFAULT_REGIONS,
    MESSAGE_OVERHEAD_BYTES,
    LinkProfile,
    RegionalLatency,
    RegionTopology,
    default_wan_topology,
    estimate_message_size,
    estimate_wire_size,
)


class TestLinkProfile:
    def test_zero_jitter_is_deterministic(self):
        profile = LinkProfile(40.0)
        rng = random.Random(1)
        assert [profile.sample_delay(rng) for _ in range(5)] == [40.0] * 5

    def test_jitter_bounds_and_determinism(self):
        profile = LinkProfile(100.0, jitter=0.2)
        draws = [profile.sample_delay(random.Random(7)) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        rng = random.Random(3)
        for _ in range(200):
            delay = profile.sample_delay(rng)
            assert 80.0 <= delay <= 120.0

    def test_transfer_time(self):
        assert LinkProfile(1.0).transfer_time(10_000) == 0.0
        assert LinkProfile(1.0, bandwidth=2_500.0).transfer_time(5_000) == 2.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            LinkProfile(-1.0)
        with pytest.raises(SimulationError):
            LinkProfile(1.0, jitter=1.5)
        with pytest.raises(SimulationError):
            LinkProfile(1.0, bandwidth=0.0)


class TestRegionTopology:
    def test_symmetric_fill(self):
        topo = RegionTopology(["a", "b"])
        link = LinkProfile(25.0)
        topo.set_profile("a", "b", link)
        assert topo.profile_between("b", "a") is link
        assert topo.profile_between("a", "b") is link

    def test_explicit_reverse_direction_wins(self):
        topo = RegionTopology(["a", "b"])
        forward, backward = LinkProfile(10.0), LinkProfile(99.0)
        topo.set_profile("a", "b", forward)
        topo.set_profile("b", "a", backward)
        assert topo.profile_between("a", "b") is forward
        assert topo.profile_between("b", "a") is backward

    def test_intra_and_default_fallbacks(self):
        intra, default = LinkProfile(0.1), LinkProfile(50.0)
        topo = RegionTopology(["a", "b"], intra_profile=intra, default_profile=default)
        assert topo.profile_between("a", "a") is intra
        assert topo.profile_between("a", "b") is default

    def test_placement(self):
        topo = RegionTopology(["a", "b"])
        topo.place("n1", "b")
        assert topo.region_of("n1") == "b"
        assert topo.region_of("unplaced") == "a"  # default_region
        assert topo.is_cross_region("n1", "unplaced")
        assert not topo.is_cross_region("n1", "n1")
        with pytest.raises(SimulationError):
            topo.place("n2", "nowhere")

    def test_link_is_resolved_again_after_a_placement_or_a_profile(self):
        intra, default = LinkProfile(0.1), LinkProfile(50.0)
        topo = RegionTopology(["a", "b"], intra_profile=intra, default_profile=default)
        topo.place("n1", "a")
        topo.place("n2", "a")
        assert topo.link("n1", "n2") == (("a", "a"), intra)
        assert topo.link("n1", "n2") is topo.link("n1", "n2")  # memoised
        topo.place("n2", "b")
        assert topo.link("n1", "n2") == (("a", "b"), default)
        assert topo.profile("n1", "n2") is default
        assert topo.is_cross_region("n1", "n2")
        declared = LinkProfile(25.0)
        topo.set_profile("b", "a", declared)
        assert topo.link("n1", "n2") == (("a", "b"), declared)
        assert topo.link("n2", "n1") == (("b", "a"), declared)

    def test_validation(self):
        with pytest.raises(SimulationError):
            RegionTopology([])
        with pytest.raises(SimulationError):
            RegionTopology(["a", "a"])
        with pytest.raises(SimulationError):
            RegionTopology(["a"]).set_profile("a", "b", LinkProfile(1.0))

    def test_default_wan_topology_matrix(self):
        topo = default_wan_topology()
        assert topo.regions == DEFAULT_REGIONS
        assert topo.profile_between("us-east", "eu-west").base == 40.0
        assert topo.profile_between("ap-south", "us-east").base == 90.0
        assert topo.profile_between("eu-west", "ap-south").base == 65.0
        assert topo.profile_between("us-east", "us-east").base == 0.5
        assert topo.profile_between("us-east", "eu-west").bandwidth == 2_500.0


class TestWireSizeEstimation:
    def test_primitives(self):
        assert estimate_wire_size(None) == 1
        assert estimate_wire_size(True) == 1
        assert estimate_wire_size(3) == 8
        assert estimate_wire_size(3.5) == 8
        assert estimate_wire_size("abcd") == 4
        assert estimate_wire_size(b"abc") == 3

    def test_containers_recurse(self):
        assert estimate_wire_size(["ab", "cd"]) == 8 + 2 + 2
        assert estimate_wire_size({"k": 1}) == 8 + 1 + 8

    def test_wire_size_hook(self):
        class Sized:
            def __wire_size__(self):
                return 77

        assert estimate_wire_size(Sized()) == 77

    def test_opaque_objects_flat_charge(self):
        class Opaque:
            pass

        assert estimate_wire_size(Opaque()) == 128

    def test_message_size_adds_overhead(self):
        assert estimate_message_size({}) == MESSAGE_OVERHEAD_BYTES + 8

    def test_estimate_is_deterministic(self):
        payload = {"versions": [1, 2, 3], "proof": "x" * 100}
        assert estimate_wire_size(payload) == estimate_wire_size(payload)


class TestRegionalLatency:
    def make(self):
        topo = RegionTopology(
            ["a", "b"],
            intra_profile=LinkProfile(1.0),
            default_profile=LinkProfile(10.0, bandwidth=100.0),
        )
        topo.place("n1", "a")
        topo.place("n2", "b")
        return topo, RegionalLatency(topo)

    def test_sample_uses_link_base(self):
        _, model = self.make()
        rng = random.Random(0)
        assert model.sample_message(rng, "n1", "n1", {}) == 1.0
        assert model.sample_message(rng, "n1", "n2", {}, size_bytes=0) == 10.0

    def test_sized_sample_adds_transfer_term(self):
        _, model = self.make()
        rng = random.Random(0)
        assert model.sample_message(rng, "n1", "n2", {}, size_bytes=500) == 10.0 + 5.0
        # Intra-region link has infinite bandwidth: no transfer term.
        assert model.sample_message(rng, "n1", "n1", {}, size_bytes=500) == 1.0

    def test_sample_message_estimates_payload(self):
        _, model = self.make()
        rng = random.Random(0)
        payload = {"x": "y"}
        expected_bytes = estimate_message_size(payload)
        assert model.sample_message(rng, "n1", "n2", payload) == 10.0 + expected_bytes / 100.0

    def test_an_unsized_link_never_sizes_the_message(self, monkeypatch):
        _, model = self.make()

        def refuse(payload):
            raise AssertionError("sized a message on a link without bandwidth")

        monkeypatch.setattr(topology, "estimate_message_size", refuse)
        rng = random.Random(0)
        assert model.sample_message(rng, "n1", "n1", {"x": "y"}) == 1.0
        # A cross-region message the counters sized already is not sized again.
        assert model.sample_message(rng, "n1", "n2", {"x": "y"}, size_bytes=500) == 15.0

    def test_a_lan_bandwidth_keeps_its_transfer_term(self):
        topo = default_wan_topology(lan_bandwidth=100.0)
        topo.place("n1", "us-east")
        topo.place("n2", "us-east")
        model = RegionalLatency(topo)
        payload = {"versions": [1, 2, 3], "proof": "x" * 100}
        size = estimate_message_size(payload)
        profile = topo.profile("n1", "n2")
        message_rng, sized_rng = random.Random(11), random.Random(11)
        delay = model.sample_message(message_rng, "n1", "n2", payload)
        assert delay == profile.sample_delay(sized_rng) + profile.transfer_time(size)
        assert message_rng.getstate() == sized_rng.getstate()
        # The transfer term is really there: the same draw without it is shorter.
        propagation = profile.sample_delay(random.Random(11))
        assert delay == propagation + size / 100.0 > propagation
