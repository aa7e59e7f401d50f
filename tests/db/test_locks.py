"""Unit tests for the strict-2PL lock manager."""

import pytest

from repro.db import locks as lock_module
from repro.db.locks import LockManager, LockMode, compatible
from repro.errors import DeadlockError
from repro.metrics.counters import Metrics


@pytest.fixture
def locks(env):
    return LockManager(env, "s1", Metrics())


def granted(event):
    return event.triggered and event.exception is None


class TestCompatibility:
    def test_shared_shared_compatible(self):
        assert compatible(LockMode.SHARED, LockMode.SHARED)

    def test_exclusive_conflicts(self):
        assert not compatible(LockMode.EXCLUSIVE, LockMode.SHARED)
        assert not compatible(LockMode.SHARED, LockMode.EXCLUSIVE)
        assert not compatible(LockMode.EXCLUSIVE, LockMode.EXCLUSIVE)


class TestGrant:
    def test_first_request_granted_immediately(self, locks):
        assert granted(locks.acquire("t1", "a", LockMode.EXCLUSIVE))
        assert locks.holders("a") == ("t1",)
        assert locks.mode("a") is LockMode.EXCLUSIVE

    def test_shared_lock_sharing(self, locks):
        assert granted(locks.acquire("t1", "a", LockMode.SHARED))
        assert granted(locks.acquire("t2", "a", LockMode.SHARED))
        assert locks.holders("a") == ("t1", "t2")

    def test_exclusive_blocks_shared(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        waiting = locks.acquire("t2", "a", LockMode.SHARED)
        assert not waiting.triggered
        assert locks.waiting("a") == ("t2",)

    def test_shared_blocks_exclusive(self, locks):
        locks.acquire("t1", "a", LockMode.SHARED)
        waiting = locks.acquire("t2", "a", LockMode.EXCLUSIVE)
        assert not waiting.triggered

    def test_reentrant_shared_after_exclusive(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert granted(locks.acquire("t1", "a", LockMode.SHARED))

    def test_reentrant_same_mode(self, locks):
        locks.acquire("t1", "a", LockMode.SHARED)
        assert granted(locks.acquire("t1", "a", LockMode.SHARED))

    def test_sole_holder_upgrade(self, locks):
        locks.acquire("t1", "a", LockMode.SHARED)
        assert granted(locks.acquire("t1", "a", LockMode.EXCLUSIVE))
        assert locks.mode("a") is LockMode.EXCLUSIVE

    def test_upgrade_with_other_sharers_waits(self, locks):
        locks.acquire("t1", "a", LockMode.SHARED)
        locks.acquire("t2", "a", LockMode.SHARED)
        upgrade = locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        assert not upgrade.triggered
        locks.release_all("t2")
        assert granted(upgrade)

    def test_fifo_prevents_starvation(self, locks):
        """A shared request arriving after a queued exclusive must wait."""
        locks.acquire("t1", "a", LockMode.SHARED)
        exclusive = locks.acquire("t2", "a", LockMode.EXCLUSIVE)
        late_shared = locks.acquire("t3", "a", LockMode.SHARED)
        assert not exclusive.triggered
        assert not late_shared.triggered
        locks.release_all("t1")
        assert granted(exclusive)
        assert not late_shared.triggered  # t3 waits for t2


class TestRelease:
    def test_release_grants_next_waiter(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        waiting = locks.acquire("t2", "a", LockMode.EXCLUSIVE)
        locks.release_all("t1")
        assert granted(waiting)
        assert locks.holders("a") == ("t2",)

    def test_release_grants_compatible_batch(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        r1 = locks.acquire("t2", "a", LockMode.SHARED)
        r2 = locks.acquire("t3", "a", LockMode.SHARED)
        locks.release_all("t1")
        assert granted(r1) and granted(r2)
        assert locks.holders("a") == ("t2", "t3")

    def test_release_all_covers_every_key(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t1", "b", LockMode.SHARED)
        locks.release_all("t1")
        assert locks.holders("a") == ()
        assert locks.holders("b") == ()
        assert locks.locks_held("t1") == ()

    def test_release_removes_pending_waits(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t2", "a", LockMode.EXCLUSIVE)  # queued
        locks.release_all("t2")  # t2 gives up before being granted
        locks.release_all("t1")
        assert locks.holders("a") == ()

    def test_release_unknown_txn_is_noop(self, locks):
        locks.release_all("ghost")


class TestDeadlock:
    def test_two_party_deadlock_detected(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t2", "b", LockMode.EXCLUSIVE)
        wait_1 = locks.acquire("t1", "b", LockMode.EXCLUSIVE)  # t1 -> t2
        assert not wait_1.triggered
        wait_2 = locks.acquire("t2", "a", LockMode.EXCLUSIVE)  # t2 -> t1: cycle
        assert wait_2.triggered
        assert isinstance(wait_2.exception, DeadlockError)
        assert wait_2.exception.victim == "t2"
        wait_2.defused = True

    def test_three_party_cycle_detected(self, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t2", "b", LockMode.EXCLUSIVE)
        locks.acquire("t3", "c", LockMode.EXCLUSIVE)
        assert not locks.acquire("t1", "b", LockMode.EXCLUSIVE).triggered
        assert not locks.acquire("t2", "c", LockMode.EXCLUSIVE).triggered
        closing = locks.acquire("t3", "a", LockMode.EXCLUSIVE)
        assert isinstance(closing.exception, DeadlockError)
        closing.defused = True

    def test_victim_release_unblocks_others(self, env, locks):
        locks.acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.acquire("t2", "b", LockMode.EXCLUSIVE)
        wait_1 = locks.acquire("t1", "b", LockMode.EXCLUSIVE)
        doomed = locks.acquire("t2", "a", LockMode.EXCLUSIVE)
        doomed.defused = True
        locks.release_all("t2")  # victim rolls back
        assert granted(wait_1)

    def test_no_false_positive_on_chain(self, locks):
        """t1 -> t2 -> t3 without a cycle must not raise."""
        locks.acquire("t3", "c", LockMode.EXCLUSIVE)
        locks.acquire("t2", "b", LockMode.EXCLUSIVE)
        assert not locks.acquire("t2", "c", LockMode.EXCLUSIVE).triggered
        assert not locks.acquire("t1", "b", LockMode.EXCLUSIVE).triggered


class TestHostCost:
    def test_hot_key_queue_costs_linear_wait_entry_visits(self, env, monkeypatch):
        """Queueing n lock-free transactions on one key, then draining it,
        reads wait entries O(n) times — not once per entry per request.

        Counted, not timed: every attribute read of a wait entry is a
        visit.  The full-table wait-for graph paid ~q²/2 visits for the
        q-th request (and a release scanned every queue), so it runs into
        the budget a few hundred requests in.
        """
        n = 2000
        budget = 20 * n
        visits = 0

        class CountedEntry(lock_module._WaitEntry):
            def __getattribute__(self, name):
                nonlocal visits
                visits += 1
                if visits > budget:
                    raise AssertionError(f"more than {budget} wait-entry visits for n={n}")
                return super().__getattribute__(name)

        monkeypatch.setattr(lock_module, "_WaitEntry", CountedEntry)
        locks = LockManager(env, "s1", Metrics())
        locks.acquire("holder", "hot", LockMode.EXCLUSIVE)
        waits = [locks.acquire(f"t{i}", "hot", LockMode.EXCLUSIVE) for i in range(n)]
        locks.release_all("holder")
        for i in range(n):  # each waiter is granted in turn, then releases
            locks.release_all(f"t{i}")
        env.run()
        assert all(granted(wait) for wait in waits)
        assert locks.holders("hot") == () and locks.waiting("hot") == ()
        assert 0 < visits <= budget
