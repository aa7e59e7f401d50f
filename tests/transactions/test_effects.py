"""Each protocol effect once: the forced write, the retry loop, the repair loop.

Three functions stand behind 2PV and 2PVC on both sides of the wire —
:func:`repro.transactions.effects.force_log`,
:func:`repro.transactions.effects.request_with_retry` and
:func:`repro.core.twopv.repair_versions` — and each check below states one
of them on a hand-built world (no testbed).  The checks reach the functions
through the names the protocol modules import, so the last section can swap
in a one-token mutant of each and show the checks notice.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig, MasterFetchMode
from repro.core import twopv, twopvc
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopv import MAX_VALIDATION_ROUNDS, run_2pv
from repro.core.twopvc import broadcast_decision, run_2pvc
from repro.db.items import ItemCatalog
from repro.db.wal import LogRecordType, WriteAheadLog
from repro.errors import AbortReason, NetworkError, RequestTimeout
from repro.metrics.counters import Metrics
from repro.obs.spans import KIND_TXN
from repro.policy.policy import Policy, PolicyId
from repro.policy.rules import RuleSet
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network, Node
from repro.sim.process import Process
from repro.transactions import effects
from repro.transactions.manager import TransactionManager
from repro.transactions.presumed import PRESUMED_COMMIT
from repro.transactions.states import Decision, Vote
from repro.transactions.transaction import Query, Transaction

FORCE = effects.LOG_FORCE_TIME


class Logger(Node):
    """The least a node needs to force a record: a log."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.wal = WriteAheadLog()

    def handle_message(self, message):  # the peer of the retry checks: never answers
        return None


def world():
    """Two registered nodes — a writer and a silent peer — and their handle."""
    env = Environment()
    metrics = Metrics(trace=True, spans=True)
    network = Network(env, metrics, latency=FixedLatency(1.0))
    writer = network.register(Logger("writer"))
    network.register(Logger("peer"))
    return env, metrics, writer


def crash_at(env: Environment, node: Node, when) -> None:
    """Crash ``node`` at ``when`` — ahead of anything scheduled later for that instant."""
    if when is not None:
        env.defer(when, lambda _event: node.crash())


def forced(node) -> list:
    return [record for record in node.wal.records_for("t1") if record.forced]


def force_spans(metrics: Metrics) -> list:
    return [span for span in metrics.spans if span.name == "log.force"]


# -- (a) the forced log write ---------------------------------------------------

#: (crash time, durable?, forced records): before the write lands, at the
#: very instant it would have, and never.
CRASHES = [(FORCE / 2, False, 0), (FORCE, False, 0), (None, True, 1)]


def check_forced_write(crash_time, durable, n_records):
    env, metrics, writer = world()
    root = metrics.spans.start("t1", "txn", KIND_TXN, "writer", 0.0)
    crash_at(env, writer, crash_time)

    def body():
        result = yield from effects.force_log(
            writer, LogRecordType.PREPARED, "t1", root, lambda: {"at": env.now}
        )
        return result, env.now

    assert env.run(until=env.process(body())) == (durable, FORCE)
    assert len(forced(writer)) == n_records
    (span,) = force_spans(metrics)
    if durable:
        (record,) = forced(writer)
        # The payload is built when the record is written, not when the force starts.
        assert (record.record_type, record.written_at, record.get("at")) == (
            LogRecordType.PREPARED, FORCE, FORCE,
        )
        assert (span.end, span.attrs) == (FORCE, {"record": "prepared"})
    else:
        assert (span.end, span.attrs) == (None, {})


@pytest.mark.parametrize("crash_time,durable,n_records", CRASHES)
def test_forced_write_is_durable_only_on_a_node_that_stayed_up(crash_time, durable, n_records):
    check_forced_write(crash_time, durable, n_records)


def test_forced_write_without_a_parent_records_no_span():
    env, metrics, writer = world()
    assert env.run(until=env.process(effects.force_log(writer, LogRecordType.ABORT, "t1")))
    assert len(forced(writer)) == 1 and force_spans(metrics) == []


def coordinator(config: CloudConfig = CloudConfig()):
    env = Environment()
    # Traced, as in world(): the tests read the TM's log as evidence.
    metrics = Metrics(trace=True, spans=True)
    network = Network(env, metrics, latency=FixedLatency(1.0))
    tm = network.register(TransactionManager("tm", config, ItemCatalog(), metrics))
    ctx = TxnContext(
        txn=Transaction("t1", "alice", queries=(Query.read("q1", ["x"]),)),
        consistency=ConsistencyLevel.VIEW,
        approach_name="deferred",
        coordinator="tm",
    )
    ctx.root_span = metrics.spans.start("t1", "txn", KIND_TXN, "tm", 0.0)
    return env, metrics, tm, ctx


def check_coordinator_decision(crash_time, durable, n_records):
    """A TM forcing its decision obeys the same crash rule as a participant."""
    env, metrics, tm, ctx = coordinator()
    crash_at(env, tm, crash_time)
    env.run(until=env.process(broadcast_decision(tm, ctx, Decision.COMMIT, [])))
    assert len(forced(tm)) == n_records
    kinds = [record.record_type for record in tm.wal.records_for("t1")]
    # Not durable: nothing announced, nothing ended.
    assert kinds == ([LogRecordType.COMMIT, LogRecordType.END] if durable else [])
    (span,) = force_spans(metrics)
    assert span.attrs == ({"record": "commit"} if durable else {})


@pytest.mark.parametrize("crash_time,durable,n_records", CRASHES)
def test_coordinator_decision_force_has_the_same_crash_rule(crash_time, durable, n_records):
    check_coordinator_decision(crash_time, durable, n_records)


def test_a_crashed_coordinator_solicits_no_votes_without_its_collecting_record():
    env, metrics, tm, ctx = coordinator(CloudConfig(commit_variant=PRESUMED_COMMIT))
    ctx.note_participant("s1", ctx.txn.queries[0])
    crash_at(env, tm, FORCE / 2)
    result = env.run(until=env.process(run_2pvc(tm, ctx)))
    assert (result.decision, result.rounds, result.abort_reason) == (Decision.ABORT, 0, None)
    assert not tm.wal.records_for("t1") and metrics.messages.total() == 0


# -- (b) the request-with-retry loop --------------------------------------------

TIMEOUT = 10.0


def check_retry(budget: int) -> None:
    """Budget *n*: n + 1 attempts, backoff 1…n between them, ``faults.retries == n``."""
    env, metrics, writer = world()

    def body():
        try:
            yield from effects.request_with_retry(
                writer, budget, RequestTimeout, "peer", "ping", "test", timeout=TIMEOUT, n=1
            )
        except RequestTimeout:
            return env.now
        raise AssertionError("a silent peer answered")

    waited = env.run(until=env.process(body()))
    sends = [record.time for record in metrics.tracer.select("net.send")]
    expected, at = [], 0.0
    for attempt in range(budget + 1):
        expected.append(at)
        at += TIMEOUT + msg.rpc_backoff(attempt + 1)
    assert sends == expected
    assert waited == expected[-1] + TIMEOUT
    assert metrics.faults.retries == budget
    assert metrics.faults.timeouts == budget + 1


@pytest.mark.parametrize("budget", [0, 1, 3])
def test_retry_budget_n_means_n_backoffs_and_n_counted_retries(budget):
    check_retry(budget)


def test_retry_re_raises_the_callers_exception_type():
    env, metrics, writer = world()

    def body(retry_on, dst):
        yield from effects.request_with_retry(writer, 2, retry_on, dst, "ping", "test", TIMEOUT)

    # An unknown destination fails synchronously, is retried, and comes back as itself.
    with pytest.raises(NetworkError):
        env.run(until=env.process(body((RequestTimeout, NetworkError), "nobody")))
    assert metrics.faults.retries == 2
    # An exception outside ``retry_on`` is not retried at all.
    with pytest.raises(NetworkError):
        env.run(until=env.process(body(RequestTimeout, "nobody")))
    assert metrics.faults.retries == 2


def test_rpc_event_with_no_retry_budget_is_the_raw_waiter_event():
    """``rpc_max_retries == 0``: no wrapper process, not one extra kernel event."""

    def cost(call_name: str, retries: int):
        env, _metrics, tm, _ctx = coordinator(CloudConfig(rpc_max_retries=retries))
        tm.network.register(Logger("peer"))
        before = env._seq
        event = getattr(tm, call_name)("peer", "ping", "test", timeout=TIMEOUT, n=1)
        event.defused = True
        return type(event), env._seq - before

    assert cost("rpc_event", 0) == cost("request", 0) == (Event, 2)  # delivery + timer
    kind, events = cost("rpc_event", 2)
    assert kind is Process and events == 1  # only the process's start; it has not sent yet


# -- (c) the version-repair loop ------------------------------------------------

APP = PolicyId("app")
POLICIES = {version: Policy(APP, version, RuleSet([])) for version in (1, 2, 3)}


class ScriptedCoordinator:
    """The coordinator surface over scripted participants and a scripted master.

    Participants answer every collection message with the version they hold
    and install whatever an ``Update`` pushes; the master's answer advances
    along ``master_script`` with every fetch (a publication landing between
    rounds), staying on the last entry.
    """

    name = "tm"
    is_down = False

    def __init__(self, held, master_script=(), stubborn=()):
        self.env = Environment()
        self.config = CloudConfig()
        self.metrics = Metrics()
        self.wal = WriteAheadLog()
        self.held = dict(held)
        self.master_script = list(master_script)
        #: Participants that never install an update (the round cap's case).
        self.stubborn = set(stubborn)
        self.fetches = 0
        self.log = []  # (kind, server, pushed versions)

    def rpc_event(self, server, kind, category, timeout=None, span=None, **payload):
        pushed = tuple(policy.version for policy in payload.get("policies", ()))
        self.log.append((kind, server, pushed))
        if pushed and server not in self.stubborn:
            self.held[server] = max(self.held[server], *pushed)
        version = self.held[server]
        reply = {
            "vote": Vote.YES,
            "truth": True,
            "versions": {APP: version},
            "policies": {APP: POLICIES[version]},
            "proofs": [],
        }
        return self.env.event().succeed(reply)

    def fetch_master_versions(self, ctx):
        version = self.master_script[min(self.fetches, len(self.master_script) - 1)]
        self.fetches += 1
        ctx.record_master_versions({APP: version})
        ctx.learn_policy(POLICIES[version])
        return {APP: version}
        yield  # pragma: no cover - makes this function a generator

    def updates(self):
        return [entry[1:] for entry in self.log if entry[0] == msg.POLICY_UPDATE]

    def drive(self, protocol, consistency, mode):
        ctx = TxnContext(
            txn=Transaction("t1", "alice", queries=(Query.read("q1", ["x"]),)),
            consistency=consistency,
            approach_name="deferred",
            coordinator="tm",
        )
        for server in self.held:
            ctx.note_participant(server, ctx.txn.queries[0])
        if protocol is run_2pvc:
            generator = run_2pvc(self, ctx, validate=True, master_mode=mode)
        else:
            generator = run_2pv(self, ctx, master_mode=mode)
        return self.env.run(until=self.env.process(generator))


VIEW, GLOBAL = ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL
ONCE, PER_ROUND = MasterFetchMode.ONCE, MasterFetchMode.PER_ROUND
HELD = {"s1": 2, "s2": 1}
#: (level, mode) → (Update rounds as (server, versions pushed), rounds, master fetches)
#: when v3 is published while the first repair round is in flight.
REPAIRS = {
    (VIEW, PER_ROUND): ([("s2", (2,))], 2, 0),
    (GLOBAL, ONCE): ([("s2", (2,))], 2, 1),
    (GLOBAL, PER_ROUND): ([("s2", (2,)), ("s1", (3,)), ("s2", (3,))], 3, 3),
}


def check_repair(level, mode):
    expected_updates, expected_rounds, expected_fetches = REPAIRS[level, mode]
    outcomes = []
    for protocol in (run_2pv, run_2pvc):
        tm = ScriptedCoordinator(HELD, master_script=(2, 3))
        result = tm.drive(protocol, level, mode)
        assert result.abort_reason is None
        assert (tm.updates(), result.rounds, tm.fetches) == (
            expected_updates, expected_rounds, expected_fetches,
        )
        outcomes.append((tm.updates(), result.rounds, result.truth_by_server))
    assert outcomes[0] == outcomes[1]  # 2PV and 2PVC repair alike
    assert result.decision is Decision.COMMIT  # and 2PVC then decides


@pytest.mark.parametrize("level,mode", list(REPAIRS))
def test_2pv_and_2pvc_issue_the_same_repair_rounds(level, mode):
    check_repair(level, mode)


@pytest.mark.parametrize("protocol", [run_2pv, run_2pvc])
def test_repair_gives_up_after_the_round_cap(protocol):
    tm = ScriptedCoordinator(HELD, stubborn={"s2"})
    result = tm.drive(protocol, VIEW, PER_ROUND)
    assert result.abort_reason is AbortReason.POLICY_INCONSISTENCY
    assert result.rounds == MAX_VALIDATION_ROUNDS == len(tm.updates()) + 1


# -- the checks catch one-token mutants -----------------------------------------


def mutant(function, old: str, new: str):
    """``function`` recompiled in its own module namespace with ``old`` → ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} must occur exactly once in {function.__name__}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def test_dropping_the_is_down_check_from_the_forced_write_is_caught(monkeypatch):
    careless = mutant(effects.force_log, "    if node.is_down:\n        return False\n", "")
    monkeypatch.setattr(effects, "force_log", careless)
    monkeypatch.setattr(twopvc, "force_log", careless)
    for check in (check_forced_write, check_coordinator_decision):
        check(None, True, 1)  # the mutant still writes…
        for crash_time in (FORCE / 2, FORCE):  # …but also on a node that is down
            with pytest.raises(AssertionError):
                check(crash_time, False, 0)


def test_an_off_by_one_retry_budget_is_caught(monkeypatch):
    stingy = mutant(effects.request_with_retry, "if attempts > retries:", "if attempts >= retries:")
    monkeypatch.setattr(effects, "request_with_retry", stingy)
    for budget in (1, 3):
        with pytest.raises(AssertionError):
            check_retry(budget)


def test_hoisting_the_master_fetch_out_of_the_loop_is_caught(monkeypatch):
    hoisted = mutant(
        twopv.repair_versions, "mode is MasterFetchMode.PER_ROUND or not master_fetched",
        "not master_fetched",
    )
    monkeypatch.setattr(twopv, "repair_versions", hoisted)
    monkeypatch.setattr(twopvc, "repair_versions", hoisted)
    check_repair(GLOBAL, ONCE)  # fetching once is what ONCE asks for
    with pytest.raises(AssertionError):
        check_repair(GLOBAL, PER_ROUND)
