"""Record shapes: key-sorted pairs, written down sorted — never sorted afterwards.

``TraceRecord.details`` and ``VerifyEvent.data`` are tuples of ``(key, value)``
pairs in strictly ascending key order; every consumer relies on it, and since
the fact methods of ``Metrics`` hand ``Tracer.record`` their pairs already in
order (``items``, stored as passed) nothing at run time checks it.  These
tests do: the fact table in docs/architecture.md ("Effects and the observation
handle") is the spec, the recorded worlds of ``test_recorder_parity.py`` plus
a hand-driven network with drops are the evidence.
"""

from __future__ import annotations

import builtins
from types import SimpleNamespace
from typing import Any, Iterable, List

import pytest

import repro.metrics.counters as counters_module
import repro.sim.tracing as tracing_module
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network, Node
from repro.sim.tracing import TraceRecord, Tracer
from repro.verify.events import VerifyEvent, collect_run
from tests.conftest import LinkCut
from tests.obs.test_observation_handle import run_twenty
from tests.obs.test_recorder_parity import CHAOS_CELLS, chaos_world


def unsorted(records: Iterable[Any]) -> List[Any]:
    """The records whose keys are not strictly ascending (so: unsorted or repeated)."""
    bad = []
    for record in records:
        keys = [key for key, _ in record[-1]]  # details / data: the last field of both
        if any(left >= right for left, right in zip(keys, keys[1:])):
            bad.append(record)
    return bad


@pytest.mark.parametrize("seed, approach, level", CHAOS_CELLS)
def test_every_record_of_a_chaos_world_has_ascending_keys(seed, approach, level):
    cluster = chaos_world(seed, approach, level)
    records = list(cluster.tracer)
    events = collect_run(cluster).events
    assert len(records) > 500 and len(events) > len(records)
    assert unsorted(records) == []
    assert unsorted(events) == []
    categories = {record.category for record in records}
    assert {"net.send", "net.recv", "fault.crash", "fault.recover", "lock.grant",
            "lock.release", "proof.eval", "txn.start", "txn.ready", "txn.done"} <= categories
    assert {event.category for event in events} >= {"wal", "storage"}


def test_message_records_are_ascending_with_and_without_ids_and_when_dropped():
    """``query_id`` sorts after ``msg_category`` and before ``reason``: both orders recorded."""

    class Sink(Node):
        def handle_message(self, message):
            return None

    env = Environment()
    metrics = Metrics(trace=True)
    network = Network(env, metrics, latency=FixedLatency(1.0))
    a = network.register(Sink("a"))
    network.register(Sink("b"))
    payloads = [{}, {"txn_id": "t1"}, {"query_id": "q1"}, {"txn_id": "t1", "query_id": "q1"}]
    for payload in payloads:
        a.send("b", "note", "test", **payload)
    LinkCut(network, ("a", "b"))
    for payload in payloads:
        a.send("b", "note", "test", **payload)
    env.run()
    records = list(metrics.tracer)
    assert [record.category for record in records].count("net.drop") == 4
    assert [record.category for record in records].count("net.recv") == 4
    assert unsorted(records) == []
    assert {len(record.details) for record in records} == {4, 5, 6}
    dropped = metrics.tracer.select("net.drop")[-1]
    assert [key for key, _ in dropped.details] == [
        "dst", "kind", "query_id", "reason", "src", "txn_id"
    ]
    assert dropped.get("reason") == "chaos"
    sent = metrics.tracer.select("net.send")[3]
    assert [key for key, _ in sent.details] == [
        "dst", "kind", "msg_category", "query_id", "src", "txn_id"
    ]
    assert sent.as_dict() == {
        "time": 0.0, "category": "net.send", "dst": "b", "kind": "note",
        "msg_category": "test", "query_id": "q1", "src": "a", "txn_id": "t1",
    }
    assert unsorted(collect_events(metrics.tracer)) == []


def collect_events(tracer: Tracer) -> List[VerifyEvent]:
    world = SimpleNamespace(
        tracer=tracer, servers={}, tms=[], master=SimpleNamespace(version_log={})
    )
    return collect_run(world).events


# -- Tracer.record(time, category, items, **details) ------------------------------


def test_keywords_are_sorted():
    tracer = Tracer()
    tracer.record(1.0, "c", src="a", dst="b", kind="k")
    assert list(tracer) == [TraceRecord(1.0, "c", (("dst", "b"), ("kind", "k"), ("src", "a")))]


def test_items_alone_are_stored_as_passed():
    tracer = Tracer()
    items = (("a", 1), ("b", 2))
    tracer.record(1.0, "c", items)
    tracer.record(2.0, "c", (("z", 1), ("a", 2)))  # the caller's contract, not checked here
    first, second = tracer
    assert first.details is items
    assert second.details == (("z", 1), ("a", 2))


def test_keywords_are_merged_into_items_and_the_whole_sorted():
    tracer = Tracer()
    tracer.record(1.0, "c", (("b", 2), ("d", 4)), c=3, a=1)
    (record,) = tracer
    assert record.details == (("a", 1), ("b", 2), ("c", 3), ("d", 4))
    assert record.get("c") == 3 and record.get("e", "none") == "none"


def test_a_disabled_tracer_stores_nothing_either_way():
    tracer = Tracer(enabled=False)
    tracer.record(1.0, "c", (("a", 1),))
    tracer.record(1.0, "c", (("a", 1),), b=2)
    tracer.record(1.0, "c", b=2)
    assert len(tracer) == 0


def test_records_are_immutable_hashable_and_compare_structurally():
    record = TraceRecord(1.0, "c", (("a", 1),))
    event = VerifyEvent(event_id=0, time=1.0, source="trace", category="c", data=(("a", 1),))
    for value, field in ((record, "time"), (event, "data")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert record == TraceRecord(time=1.0, category="c", details=(("a", 1),))
    assert len({record, TraceRecord(1.0, "c", (("a", 1),))}) == 1
    assert event.with_changes(a=2, b=3) == VerifyEvent(0, 1.0, "trace", "c", (("a", 2), ("b", 3)))
    assert event.with_changes(time=None).time is None and event.time == 1.0
    assert event.get("a") == record.get("a") == 1


# -- no sort on the recording path --------------------------------------------------


def test_a_traced_run_never_sorts_on_the_recording_path(monkeypatch):
    """The parent called ``sorted`` once per message record: its keywords arrived
    ``src, dst, kind, ...``, so the "already sorted" scan failed at the second key."""
    calls = []

    def counting_sorted(*args: Any, **kwargs: Any) -> List[Any]:
        calls.append(args)
        return builtins.sorted(*args, **kwargs)

    # Shadow the builtin with a module global in the two modules a fact crosses.
    monkeypatch.setattr(tracing_module, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(counters_module, "sorted", counting_sorted, raising=False)
    cluster, recorded = run_twenty(True, monkeypatch)
    assert len(recorded) == len(cluster.tracer) > 500
    assert calls == []
    assert unsorted(cluster.tracer) == []
    # The keyword path is the one that sorts, and it is counted when taken.
    cluster.tracer.record(0.0, "ad-hoc", z=1, a=2)
    assert len(calls) == 1
