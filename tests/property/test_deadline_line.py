"""A deadline line dispatches exactly like one ``Timeout`` per deadline.

:class:`repro.sim.kernel.DeadlineLine` keeps many deadlines of one delay
behind at most one queue entry.  Its contract is that nothing can tell: the
same callbacks run in the same order at the same instants, a drained run
ends at the same ``env.now``, and the sequence counter has taken the same
numbers.  The reference below pushes one ``Timeout`` per deadline and lets
a discarded one fire into nothing.

The scenarios are random batches of operations on two lines at integer
instants with integer delays, so deadlines keep landing on the instant of
other events: bystander timeouts and ``succeed()`` events pushed before and
after an ``add`` in the same batch, batches scheduled from batches, and
operations run from inside a firing deadline.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SimulationError
from repro.sim.kernel import DeadlineLine, Environment

DELAYS = (0, 1, 2, 3)


class TimeoutPerDeadline:
    """The reference: one ``Timeout`` per deadline, fired unless discarded."""

    def __init__(self, env, delay, fire):
        self.env = env
        self.delay = delay
        self.fire = fire
        self.live = {}

    def add(self, key, value=None):
        if key in self.live:
            raise SimulationError(f"deadline {key!r} is already pending")
        timer = self.env.defer(self.delay, self._expire, (key, value))
        self.live[key] = timer

    def discard(self, key):
        self.live.pop(key, None)

    def _expire(self, timer):
        key, value = timer.value
        if self.live.get(key) is timer:
            del self.live[key]
            self.fire(key, value)


op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1)),
    st.tuples(st.just("discard"), st.integers(0, 40)),
    st.tuples(st.just("bystander"), st.sampled_from(DELAYS)),
    st.tuples(st.just("succeed"), st.just(0)),
)
batch = st.tuples(
    st.sampled_from((0, 0, 1, 2, 3)),  # gap to the next batch
    st.booleans(),  # schedule the next batch before (True) or after the ops
    st.lists(op, max_size=6),
    st.lists(op, max_size=3),  # what a deadline added in this batch does when it fires
)
scenario = st.tuples(
    st.tuples(st.sampled_from(DELAYS), st.sampled_from(DELAYS)),
    st.lists(batch, min_size=1, max_size=12),
)


def play(line_class, delays, batches):
    """Run one scenario; return the log, the drained clock and the counter."""
    env = Environment()
    log = []
    keys = iter(range(10**6))
    on_fire = {}
    lines = []

    def fire(key, value):
        log.append((env.now, "fire", key, value))
        for operation in on_fire.pop(key, ()):
            apply(operation, ())

    def apply(operation, fire_ops):
        kind, arg = operation
        if kind == "add":
            key = next(keys)
            on_fire[key] = fire_ops
            lines[arg].add(key, ("value", key))
        elif kind == "discard":
            on_fire.pop(arg, None)
            for line in lines:
                line.discard(arg)
        elif kind == "bystander":
            env.defer(arg, lambda event: log.append((env.now, "bystander", event.value)), len(log))
        else:
            event = env.event()
            event.callbacks.append(lambda event: log.append((env.now, "succeed", event.value)))
            event.succeed(len(log))

    def run_batch(event):
        index = event.value
        gap, next_first, ops, fire_ops = batches[index]
        log.append((env.now, "batch", index))
        if next_first and index + 1 < len(batches):
            env.defer(gap, run_batch, index + 1)
        for operation in ops:
            apply(operation, fire_ops)
        if not next_first and index + 1 < len(batches):
            env.defer(gap, run_batch, index + 1)
        if line_class is DeadlineLine:
            for line in lines:
                queued = [cb for *_, waiting in env._queue for cb in waiting.callbacks]
                assert [getattr(cb, "__self__", None) for cb in queued].count(line) <= 1

    lines.extend(line_class(env, delay, fire) for delay in delays)
    env.defer(0, run_batch, 0)
    for _ in range(10_000):  # step() is run()'s reference; a bound turns a loop into a failure
        if env.peek() == float("inf"):
            return log, env.now, env._seq
        env.step()
    raise AssertionError("the queue never drained")


@settings(max_examples=400, deadline=None)
@given(scenario)
def test_a_deadline_line_is_indistinguishable_from_a_timeout_per_deadline(case):
    delays, batches = case
    assert play(DeadlineLine, delays, batches) == play(TimeoutPerDeadline, delays, batches)


def test_an_emptied_line_ends_a_drained_run_where_its_timeouts_would():
    """Every deadline discarded: nothing fires, yet the clock reaches the
    newest one, as the no-op timeouts of the reference would take it."""
    for line_class in (DeadlineLine, TimeoutPerDeadline):
        env = Environment()
        line = line_class(env, 10, lambda key, value: pytest.fail("discarded deadline fired"))
        line.add("a")
        env.run(until=4)
        line.add("b")
        line.discard("a")
        line.discard("b")
        env.run()
        assert env.now == 14 and env._seq == 2, line_class


def test_one_queue_entry_however_many_deadlines():
    env = Environment()
    fired = []
    line = DeadlineLine(env, 5, lambda key, value: fired.append((env.now, key)))
    for key in range(1000):
        line.add(key)
    assert len(env._queue) == 1 and len(line._deadlines) == 1000 and env._seq == 1000
    for key in range(0, 1000, 2):
        line.discard(key)
    env.run()
    assert fired == [(5, key) for key in range(1, 1000, 2)] and line._deadlines == {}


def test_a_pending_key_cannot_be_added_twice():
    env = Environment()
    line = DeadlineLine(env, 1, lambda key, value: None)
    line.add("k")
    with pytest.raises(SimulationError, match="already pending"):
        line.add("k")
    assert env._seq == 1
    line.discard("k")
    line.add("k")  # a discarded key is free again


def test_a_closed_environment_refuses_a_deadline():
    env = Environment()
    line = DeadlineLine(env, 1, lambda key, value: None)
    line.add("a")
    env.close()
    with pytest.raises(SimulationError, match="closed environment"):
        line.add("b")
    assert env._queue == []


def test_a_negative_delay_is_refused():
    with pytest.raises(SimulationError, match="negative timeout delay"):
        DeadlineLine(Environment(), -1, lambda key, value: None)
