"""The observation handle: one call per fact, and what an off recorder costs.

``Metrics`` is the one object every component records through.  The checks
here are about the handle itself; what each recorder ends up *containing* is
pinned by ``test_recorder_parity.py`` and who may talk to a recorder at all
by ``tests/test_observation_seam.py``.
"""

from __future__ import annotations

import pytest

from repro.cloud.config import CloudConfig
from repro.metrics.counters import Metrics
from repro.obs.flight import FlightRecorder
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network, Node
from repro.sim.tracing import Tracer
from repro.verify import dump_incident
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster
from tests.conftest import simple_txn


def run_twenty(trace: bool, monkeypatch):
    """20 transactions (one server crash on the way); every ``Tracer.record`` call counted."""
    calls = []
    record = Tracer.record

    def counting(self, time, category, items=(), **details):
        calls.append(category)
        record(self, time, category, items, **details)

    monkeypatch.setattr(Tracer, "record", counting)
    cluster = build_cluster(
        n_servers=3, seed=5, config=CloudConfig(latency=FixedLatency(1.0)), trace=trace
    )
    credentials = [cluster.issue_role_credential("alice")]
    spec = WorkloadSpec(txn_length=3, read_fraction=0.5, count=20, user="alice")
    workload = uniform_transactions(spec, cluster.catalog, cluster.rng.stream("w"), credentials)
    for index, txn in enumerate(workload):
        cluster.submit(txn, "punctual")
        cluster.run(until=cluster.env.now + 4.0)
        if index == 10:
            cluster.server("s2").crash()
            cluster.server("s2").recover()
    cluster.run()
    assert cluster.metrics.messages.total() > 200 and cluster.metrics.faults.crashes == 1
    return cluster, calls


def test_an_untraced_run_never_calls_the_tracer(monkeypatch):
    """The ``enabled`` test sits inside each fact method, ahead of any detail:
    the parent made two ``record()`` calls per message (plus one per crash and
    recovery), each with its keyword dict, for the tracer to return at once."""
    cluster, calls = run_twenty(False, monkeypatch)
    assert calls == [] and len(cluster.tracer) == 0


def test_a_traced_run_calls_the_tracer_once_per_record(monkeypatch):
    cluster, calls = run_twenty(True, monkeypatch)
    assert len(calls) == len(cluster.tracer) > 0
    assert calls == [record.category for record in cluster.tracer]
    assert {"net.send", "net.recv", "fault.crash", "fault.recover", "lock.grant",
            "lock.release", "proof.eval", "txn.start", "txn.ready", "txn.done"} <= set(calls)


def test_a_flight_event_is_stamped_with_the_networks_clock():
    """No testbed, nobody binds a clock: the send site passes its own ``now``."""

    class Sink(Node):
        def handle_message(self, message):
            return None

    env = Environment()
    metrics = Metrics()
    metrics.flight = flight = FlightRecorder()
    assert not hasattr(flight, "clock")
    network = Network(env, metrics, latency=FixedLatency(1.0))
    a, b = network.register(Sink("a")), network.register(Sink("b"))
    env.run(until=12.5)
    a.send("b", "note", "test", txn_id="t1")
    env.run(until=40.0)
    b.crash()
    events = [(event.time, event.node, event.category) for event in flight.events()]
    assert events == [(12.5, "a", "net.send"), (40.0, "b", "fault.crash")]


@pytest.mark.parametrize("flight", [True, False])
def test_violations_dump_one_bundle_through_one_function(flight):
    cluster = build_cluster(n_servers=3, seed=3, config=CloudConfig(flight_recorder=flight))
    credential = cluster.issue_role_credential("alice")
    cluster.run_transaction(simple_txn(credentials=[credential], txn_id="t1"), "deferred")
    clean = cluster.verify()
    assert not clean.violations
    dump_incident(cluster, clean, "nothing to see")  # no violations: no bundle
    # An unreleased grant on a finished transaction breaks strict 2PL.
    cluster.tracer.record(
        cluster.env.now, "lock.grant", key="s1/x1", mode="X", server="s1", txn_id="t1"
    )
    report = cluster.verify()
    assert report.violations
    if not flight:
        assert cluster.metrics.flight is None
        return
    (bundle,) = cluster.metrics.flight.bundles
    assert bundle.reason.startswith("conformance: ") and bundle.violations
    assert bundle.openmetrics.endswith("# EOF\n") and "t1" in bundle.waterfalls
