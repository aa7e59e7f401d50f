"""Where a coordinator's log forgets a transaction.

An untraced coordinator without retries forgets a transaction where the
protocol is done with it: an ABORT as soon as it is logged (abort is
presumed), a COMMIT at its END once every participant acknowledged it.  A
COMMIT some participant did not acknowledge stays, since that participant
may still ask.  Each check drives :func:`repro.core.twopvc.broadcast_decision`
(or the TM's abort path) on a hand-built world and reads the coordinator's
log while the acknowledgements are in flight and after.
"""

from __future__ import annotations

import pytest

from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopvc import broadcast_decision
from repro.db.items import ItemCatalog
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network, Node
from repro.transactions.effects import LOG_FORCE_TIME
from repro.transactions.manager import TransactionManager
from repro.transactions.presumed import PRESUMED_ABORT, PRESUMED_NOTHING
from repro.transactions.states import Decision
from repro.transactions.transaction import Query, Transaction

COMMIT, ABORT = Decision.COMMIT, Decision.ABORT
FORCE = LOG_FORCE_TIME


class Participant(Node):
    """Acknowledges every DECISION, or none when ``silent``."""

    def __init__(self, name: str, silent: bool = False) -> None:
        super().__init__(name)
        self.silent = silent

    def handle_message(self, message):
        if not self.silent:
            self.reply(message, msg.DECISION_ACK, msg.CAT_DECISION, txn_id=message["txn_id"])


def untraced_coordinator(variant, silent=False):
    env = Environment()
    metrics = Metrics(trace=False, spans=False)
    network = Network(env, metrics, latency=FixedLatency(1.0))
    config = CloudConfig(commit_variant=variant, request_timeout=10.0)
    tm = network.register(TransactionManager("tm", config, ItemCatalog(), metrics))
    network.register(Participant("s1", silent))
    ctx = TxnContext(
        txn=Transaction("t1", "alice", queries=(Query.read("q1", ["x"]),)),
        consistency=ConsistencyLevel.VIEW,
        approach_name="deferred",
        coordinator="tm",
    )
    return env, tm, ctx


def kinds(tm):
    return [record.record_type.value for record in tm.wal.records_for("t1")]


def decide(variant, decision, silent=False):
    """The coordinator's log for ``t1`` one time unit after the decision is
    logged (its acks, if any, still in flight), and once the phase is over."""
    env, tm, ctx = untraced_coordinator(variant, silent)
    assert tm.wal.forgets
    logged_at = FORCE if variant.coordinator_forces(decision) else 0.0
    in_flight = []
    env.defer(logged_at + 1.0, lambda _event: in_flight.extend(kinds(tm)))
    env.run(until=env.process(broadcast_decision(tm, ctx, decision, ["s1"])))
    return in_flight, kinds(tm)


@pytest.mark.parametrize(
    "variant", [PRESUMED_NOTHING, PRESUMED_ABORT], ids=lambda variant: variant.name
)
def test_an_abort_is_forgotten_as_soon_as_it_is_logged(variant):
    # Presumed nothing awaits the abort acks; presumed abort collects none.
    assert decide(variant, ABORT) == ([], [])


def test_an_abort_nobody_acknowledged_is_forgotten_at_its_end():
    assert decide(PRESUMED_NOTHING, ABORT, silent=True) == ([], [])


def test_an_acknowledged_commit_is_held_until_its_end():
    assert decide(PRESUMED_ABORT, COMMIT) == (["commit"], [])


def test_a_commit_some_participant_did_not_acknowledge_is_kept():
    assert decide(PRESUMED_ABORT, COMMIT, silent=True) == (["commit"], ["commit", "end"])


def test_an_abort_before_any_participant_is_forgotten():
    env, tm, ctx = untraced_coordinator(PRESUMED_ABORT)
    env.run(until=env.process(tm._abort_everywhere(ctx)))
    assert tm.wal.unforced_writes == 1 and kinds(tm) == []
