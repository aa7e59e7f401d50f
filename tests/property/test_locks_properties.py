"""Property-based tests for the lock manager's invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.locks import LockManager, LockMode
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment

KEYS = ("a", "b", "c")
TXNS = ("t1", "t2", "t3", "t4")


@st.composite
def operations(draw):
    """A random interleaving of acquire/release operations."""
    ops = []
    count = draw(st.integers(min_value=1, max_value=25))
    for _ in range(count):
        if draw(st.booleans()):
            ops.append(
                (
                    "acquire",
                    draw(st.sampled_from(TXNS)),
                    draw(st.sampled_from(KEYS)),
                    draw(st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])),
                )
            )
        else:
            ops.append(("release", draw(st.sampled_from(TXNS)), None, None))
    return ops


def apply_ops(ops):
    env = Environment()
    locks = LockManager(env, "s", Metrics())
    for op, txn, key, mode in ops:
        if op == "acquire":
            event = locks.acquire(txn, key, mode)
            if event.triggered and event.exception is not None:
                event.defused = True  # deadlock victim: fine
        else:
            locks.release_all(txn)
    return locks


class TestInvariants:
    @given(operations())
    @settings(max_examples=200)
    def test_exclusive_never_shared(self, ops):
        """An exclusively locked key has exactly one holder."""
        locks = apply_ops(ops)
        for key in KEYS:
            if locks.mode(key) is LockMode.EXCLUSIVE:
                assert len(locks.holders(key)) == 1

    @given(operations())
    @settings(max_examples=200)
    def test_holders_imply_mode(self, ops):
        locks = apply_ops(ops)
        for key in KEYS:
            holders = locks.holders(key)
            if holders:
                assert locks.mode(key) is not None
            else:
                assert locks.mode(key) is None

    @given(operations())
    @settings(max_examples=200)
    def test_held_by_txn_index_matches_lock_table(self, ops):
        """The per-transaction index and the per-key table agree."""
        locks = apply_ops(ops)
        for txn in TXNS:
            for key in locks.locks_held(txn):
                assert txn in locks.holders(key)
        for key in KEYS:
            for holder in locks.holders(key):
                assert key in locks.locks_held(holder)

    @given(operations())
    @settings(max_examples=200)
    def test_wait_index_matches_the_queues(self, ops):
        """The per-transaction wait index holds exactly the queued entries."""
        locks = apply_ops(ops)
        queued = [id(entry) for state in locks._locks.values() for entry in state.queue]
        indexed = [id(entry) for waits in locks._waits_by_txn.values() for entry in waits]
        assert sorted(queued) == sorted(indexed)
        assert all(waits for waits in locks._waits_by_txn.values())

    @given(operations())
    @settings(max_examples=200)
    def test_release_everything_leaves_clean_table(self, ops):
        locks = apply_ops(ops)
        for txn in TXNS:
            locks.release_all(txn)
        for key in KEYS:
            assert locks.holders(key) == ()
            assert locks.waiting(key) == ()

    @given(operations())
    @settings(max_examples=100)
    def test_no_waiter_is_also_holder_of_same_grant(self, ops):
        """Waiting entries are either upgrades or from non-holders."""
        locks = apply_ops(ops)
        for key in KEYS:
            holders = set(locks.holders(key))
            for waiter in locks.waiting(key):
                if waiter in holders:
                    # Only a shared holder waiting to upgrade may queue.
                    assert locks.mode(key) is LockMode.SHARED
