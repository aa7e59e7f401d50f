"""The indexed lock manager against the full-table reference.

Victims, ``DeadlockError.cycle`` tuples, the FIFO grant order and the order
in which cancelled waits fail all reach kernel sequence numbers, abort
reasons and chaos trace digests, so :class:`~repro.db.locks.LockManager`
must reproduce :class:`tests.db.lock_oracle.ReferenceLockManager` exactly,
not merely stay deadlock-free.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.locks import LockManager, LockMode
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment
from repro.sim.tracing import Tracer
from tests.db.lock_oracle import ReferenceLockManager

TXNS = ("t1", "t2", "t3", "t4", "t5", "t6")
KEYS = ("a", "b", "c", "d")



def schedule(seed, n_txns, n_keys, length):
    """A seeded random schedule of acquire / release_all / on_crash.

    Drawn with :mod:`random` rather than element by element from
    hypothesis: its lists lean short and simple, and a deadlock needs a
    long run of acquires nobody releases in between.  Acquires dominate so
    that queues and cycles build up; a shared request followed by an
    exclusive one on the same key is the upgrade path.
    """
    rng = random.Random(seed)
    txns, keys = TXNS[:n_txns], KEYS[:n_keys]
    ops = []
    for _ in range(length):
        draw = rng.random()
        if draw < 0.82:
            ops.append(
                ("acquire", rng.choice(txns), rng.choice(keys), rng.choice(list(LockMode)))
            )
        elif draw < 0.98:
            ops.append(("release", rng.choice(txns)))
        else:
            ops.append(("crash",))
    return ops


def replay(manager_class, ops):
    """Everything observable about one schedule, in kernel order."""
    env = Environment()
    if manager_class is LockManager:
        metrics = Metrics(trace=True)
        tracer, locks = metrics.tracer, LockManager(env, "s", metrics)
    else:  # the reference keeps the constructor it was frozen with
        tracer = Tracer()
        locks = manager_class(env, "s", tracer=tracer)
    log = []

    def resolved(request):
        def callback(event):
            error = event.exception
            outcome = event.value if error is None else (error.victim, error.cycle)
            log.append((request, outcome))

        return callback

    for request, op in enumerate(ops):
        if op[0] == "acquire":
            event = locks.acquire(*op[1:])
            event.defused = True  # victims and cancellations are outcomes here
            event.callbacks.append(resolved(request))
        elif op[0] == "release":
            locks.release_all(op[1])
        else:
            log.append(("crash", locks.on_crash()))
        env.run()
        log.append(
            tuple((locks.holders(key), locks.mode(key), locks.waiting(key)) for key in KEYS)
            + tuple(locks.locks_held(txn) for txn in TXNS)
        )
    return log, list(tracer)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_txns=st.integers(2, len(TXNS)),
    n_keys=st.integers(1, len(KEYS)),
    length=st.integers(1, 120),
)
@settings(max_examples=400, deadline=None)
def test_indexed_manager_matches_the_full_table_reference(seed, n_txns, n_keys, length):
    ops = schedule(seed, n_txns, n_keys, length)
    assert replay(LockManager, ops) == replay(ReferenceLockManager, ops)


def test_schedule_space_reaches_deadlocks_upgrades_and_cancellations():
    """The comparison is only worth something if the hard cases occur."""
    ops = [
        ("acquire", "t1", "a", LockMode.SHARED),
        ("acquire", "t2", "a", LockMode.SHARED),
        ("acquire", "t3", "b", LockMode.EXCLUSIVE),
        ("acquire", "t1", "a", LockMode.EXCLUSIVE),  # upgrade queues behind t2's share
        ("acquire", "t2", "b", LockMode.SHARED),  # t2 waits for t3
        ("acquire", "t4", "a", LockMode.SHARED),  # FIFO: behind the upgrade
        ("acquire", "t3", "a", LockMode.EXCLUSIVE),  # t3 -> t1 -> t2 -> t3
        ("acquire", "t4", "b", LockMode.SHARED),  # second wait of t4
        ("release", "t4"),  # cancels two waits, table order a then b
        ("release", "t2"),  # t1's upgrade is granted
    ]
    log, _trace = replay(LockManager, ops)
    assert replay(ReferenceLockManager, ops)[0] == log
    outcomes = [entry for entry in log if len(entry) == 2]
    assert (6, ("t3", ("t3", "t1", "t2"))) in outcomes
    cancelled = [entry for entry in outcomes if entry[1][0] == "t4"]
    assert cancelled == [
        (5, ("t4", ("cancelled", "a"))),
        (7, ("t4", ("cancelled", "b"))),
    ]
    assert (3, ("a", LockMode.EXCLUSIVE)) in outcomes
