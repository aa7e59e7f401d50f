"""``collect_run`` orders and numbers the evidence exactly as its oracle does.

``collect_run`` sorts the timed evidence stably on time alone and appends the
untimed storage accesses; ``collect_oracle.reference_events`` is the merge it
replaced, ``(time or infinity, position)`` through a Python key function.  The
two must agree event for event on recorded worlds (the nine chaos cells of
``tests/obs/test_recorder_parity.py``) and on hand-built evidence that puts
the weight on the tie-breaks.  Two seeded defects — WAL before trace at one
instant, and a sort that does not keep equal times in order, each
``collect_run`` itself recompiled with its sort replaced — show that the
comparison would notice either.
"""

from __future__ import annotations

import inspect
import textwrap
from types import SimpleNamespace
from typing import Any, Callable, List

import pytest

from repro.db.storage import AccessKind, AccessRecord
from repro.db.wal import LogRecordType, WriteAheadLog
from repro.sim.tracing import Tracer
from repro.verify import events as events_module
from repro.verify.events import SOURCE_TRACE, SOURCE_WAL, VerifyEvent, collect_run
from tests.obs.test_recorder_parity import CHAOS_CELLS, chaos_world
from tests.verify.collect_oracle import reference_events


def node(name: str, accesses: List[AccessRecord] = ()) -> Any:
    return SimpleNamespace(
        name=name,
        wal=WriteAheadLog(),
        storage=SimpleNamespace(access_log=list(accesses)),
        outcomes=[],
    )


def world(servers: List[Any], tms: List[Any]) -> Any:
    """What ``collect_run`` reads of a cluster, hand-built."""
    return SimpleNamespace(
        tracer=Tracer(),
        servers={server.name: server for server in servers},
        tms=tms,
        master=SimpleNamespace(version_log={}),
    )


def same_instant() -> Any:
    """(i) WAL records and trace records at the same instant, on three nodes."""
    s1, s2, tm = node("s1"), node("s2"), node("tm1")
    hand_built = world([s1, s2], [tm])
    tm.wal.force(LogRecordType.BEGIN, "t1", 1.0)
    hand_built.tracer.record(1.0, "txn.start", txn_id="t1")
    s2.wal.force(LogRecordType.PREPARED, "t1", 2.0, vote="yes", versions={"a": 1})
    hand_built.tracer.record(2.0, "net.send", src="s2", dst="tm1", kind="2pvc.vote", txn_id="t1")
    s1.wal.force(LogRecordType.PREPARED, "t1", 2.0, vote="yes")
    hand_built.tracer.record(2.0, "net.send", src="s1", dst="tm1", kind="2pvc.vote", txn_id="t1")
    tm.wal.force(LogRecordType.COMMIT, "t1", 2.0)
    hand_built.tracer.record(3.0, "txn.done", txn_id="t1", committed=True)
    tm.wal.append(LogRecordType.END, "t1", 3.0)
    return hand_built


def out_of_time_order() -> Any:
    """(ii) A tracer fed out of time order, ties on both sides of the jump."""
    tm = node("tm1")
    hand_built = world([node("s1")], [tm])
    for time, label in ((5.0, "a"), (3.0, "b"), (5.0, "c"), (3.0, "d"), (4.0, "e")):
        hand_built.tracer.record(time, "mark", label=label)
    tm.wal.force(LogRecordType.BEGIN, "t1", 5.0)
    tm.wal.force(LogRecordType.ABORT, "t1", 3.0)
    return hand_built


def untimed_accesses() -> Any:
    """(iii) Storage accesses — no timestamp — from two servers, after everything timed."""
    reads = AccessRecord(0, "t1", "s1/x1", AccessKind.READ)
    s1 = node("s1", [reads, AccessRecord(1, "t2", "s1/x1", AccessKind.WRITE)])
    s2 = node("s2", [AccessRecord(0, "t2", "s2/x1", AccessKind.READ)])
    hand_built = world([s1, s2], [node("tm1")])
    hand_built.tracer.record(9.0, "txn.done", txn_id="t1", committed=True)
    s2.wal.force(LogRecordType.COMMIT, "t2", 8.0)
    s1.storage.access_log.append(AccessRecord(2, "t2", "s1/x1", AccessKind.APPLY))
    return hand_built


HAND_BUILT = {
    "same-instant": same_instant,
    "out-of-time-order": out_of_time_order,
    "untimed-accesses": untimed_accesses,
}


def assert_matches_oracle(collect: Callable[[Any], List[VerifyEvent]], cluster: Any) -> None:
    expected = reference_events(cluster)
    events = collect(cluster)
    assert len(events) == len(expected)
    for event, reference in zip(events, expected):
        assert event == reference, f"{event.describe()}\n  oracle: {reference.describe()}"
    assert [event.event_id for event in events] == list(range(len(events)))


def collected(cluster: Any) -> List[VerifyEvent]:
    return collect_run(cluster).events


@pytest.mark.parametrize("seed, approach, level", CHAOS_CELLS)
def test_recorded_worlds_collect_as_the_oracle_does(seed, approach, level):
    cluster = chaos_world(seed, approach, level)
    assert_matches_oracle(collected, cluster)
    events = collected(cluster)
    instants = [event.time for event in events if event.time is not None]
    assert len(set(instants)) < len(instants), "no two events at one instant: ties untested"
    assert {SOURCE_TRACE, SOURCE_WAL} < {event.source for event in events}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_evidence_collects_as_the_oracle_does(name):
    assert_matches_oracle(collected, HAND_BUILT[name]())


def test_the_order_is_time_then_trace_then_each_wal_then_storage():
    events = collected(same_instant())
    at_two = [
        (event.source, event.get("node") or event.get("src"))
        for event in events
        if event.time == 2.0
    ]
    assert at_two == [
        ("trace", "s2"), ("trace", "s1"), ("wal", "s1"), ("wal", "s2"), ("wal", "tm1")
    ]
    labels = [
        event.get("label") or event.get("record_type")
        for event in collected(out_of_time_order())
    ]
    assert labels == ["b", "d", "abort", "e", "a", "c", "begin"]
    tail = collected(untimed_accesses())[2:]
    assert [(event.time, event.get("server"), event.get("sequence")) for event in tail] == [
        (None, "s1", 0), (None, "s1", 1), (None, "s1", 2), (None, "s2", 0)
    ]


# -- seeded defects: what the comparison must notice ------------------------------

THE_SORT = "evidence.sort(key=itemgetter(0))"


def mutant(new_sort: str) -> Callable[[Any], List[VerifyEvent]]:
    """``collect_run`` recompiled in its own module namespace with its sort replaced."""
    source = textwrap.dedent(inspect.getsource(events_module.collect_run))
    assert source.count(THE_SORT) == 1, f"{THE_SORT!r} must occur exactly once in collect_run"
    namespace = dict(vars(events_module))
    exec(source.replace(THE_SORT, new_sort), namespace)
    return lambda cluster: namespace["collect_run"](cluster).events


MUTANTS = {
    # The WALs laid down ahead of the trace: at one instant, WAL evidence first.
    "wal-before-trace-on-ties": "evidence.sort(key=lambda entry: (entry[0], entry[1] != 'wal'))",
    # A sort that does not keep equal times in recording order: every tie reversed.
    "unstable-sort": "evidence.sort(key=itemgetter(0), reverse=True); evidence.reverse()",
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_seeded_defect_in_the_order_is_caught(name):
    defective = mutant(MUTANTS[name])
    assert_matches_oracle(defective, untimed_accesses())  # no two events at one instant
    for build in (same_instant, out_of_time_order):
        with pytest.raises(AssertionError):
            assert_matches_oracle(defective, build())
    seed, approach, level = CHAOS_CELLS[0]
    with pytest.raises(AssertionError):
        assert_matches_oracle(defective, chaos_world(seed, approach, level))
