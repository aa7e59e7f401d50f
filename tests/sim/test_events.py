"""Unit tests for the event primitives."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.kernel import Environment

EVENT_KINDS = ("timeout", "succeed", "fail", "process")


def push(env, kind, note):
    """Put one event of ``kind`` on the queue, due now; ``note()`` runs
    when it is processed."""
    if kind == "timeout":
        env.timeout(0).add_callback(lambda _event: note())
    elif kind == "process":

        def body():
            note()
            return
            yield  # a generator that never waits

        env.process(body())
    else:
        event = env.event()
        event.add_callback(lambda _event: note())
        if kind == "succeed":
            event.succeed()
        else:
            event.fail(ValueError(kind))
            event.defused = True


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(41)
        assert event.triggered
        env.run()
        assert event.processed
        assert event.value == 41

    def test_succeed_twice_is_an_error(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_is_an_error(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        event.defused = True
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_failed_event_value_reraises(self, env):
        event = env.event()
        event.fail(KeyError("k"))
        event.defused = True
        env.run()
        with pytest.raises(KeyError):
            _ = event.value

    def test_callback_runs_on_processing(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("x")
        env.run()
        assert seen == ["x"]

    def test_callback_added_after_processing_runs_immediately(self, env):
        event = env.event()
        event.succeed(7)
        env.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == [7]

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        event = env.event()
        event.fail(RuntimeError("handled"))
        event.defused = True
        env.run()  # no raise


class TestTimeout:
    def test_fires_after_delay(self, env):
        timeout = env.timeout(5, value="done")
        env.run()
        assert env.now == 5
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_fires_at_current_time(self, env):
        env.timeout(3)
        env.run()
        start = env.now
        env.timeout(0)
        env.run()
        assert env.now == start

    def test_ordering_of_timeouts(self, env):
        order = []
        env.timeout(2).add_callback(lambda ev: order.append("b"))
        env.timeout(1).add_callback(lambda ev: order.append("a"))
        env.timeout(3).add_callback(lambda ev: order.append("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self, env):
        order = []
        env.timeout(1).add_callback(lambda ev: order.append(1))
        env.timeout(1).add_callback(lambda ev: order.append(2))
        env.run()
        assert order == [1, 2]
        # Mixed kinds, every push order: a zero-delay timeout, a succeed(),
        # a defused fail() and a process start pushed at one instant are
        # processed in push order.  Nothing jumps the queue.
        for kinds in itertools.permutations(EVENT_KINDS):
            order.clear()

            def push_all(_event, kinds=kinds):
                for index, kind in enumerate(kinds):
                    push(env, kind, lambda index=index: order.append(index))

            at = env.now + 1
            env.timeout(1).add_callback(push_all)
            env.run()
            assert order == [0, 1, 2, 3], kinds
            assert env.now == at


class TestAllOf:
    def test_collects_all_values_in_order(self, env):
        events = [env.timeout(3, "c"), env.timeout(1, "a"), env.timeout(2, "b")]
        combined = env.all_of(events)
        env.run()
        assert combined.value == ["c", "a", "b"]

    def test_empty_allof_succeeds_immediately(self, env):
        combined = env.all_of([])
        env.run()
        assert combined.value == []

    def test_fails_if_any_child_fails(self, env):
        good = env.timeout(1)
        bad = env.event()
        bad.fail(ValueError("child"))
        combined = env.all_of([good, bad])
        combined.add_callback(lambda ev: setattr(ev, "defused", True))
        env.run()
        assert isinstance(combined.exception, ValueError)

    def test_waits_for_slowest(self, env):
        combined = env.all_of([env.timeout(1), env.timeout(10)])
        done_at = []
        combined.add_callback(lambda ev: done_at.append(env.now))
        env.run()
        assert done_at == [10]

    def test_rejects_mixed_environments(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([env.timeout(1), other.timeout(1)])
