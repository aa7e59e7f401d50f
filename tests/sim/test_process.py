"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.sim.process import Interrupt, Process


class TestBasics:
    def test_process_runs_and_returns(self, env):
        def body():
            yield env.timeout(3)
            return "result"

        process = env.process(body())
        assert env.run(until=process) == "result"
        assert env.now == 3

    def test_yield_receives_event_value(self, env):
        def body():
            value = yield env.timeout(1, value="hello")
            return value

        assert env.run(until=env.process(body())) == "hello"

    def test_sequential_timeouts_accumulate(self, env):
        def body():
            yield env.timeout(2)
            yield env.timeout(3)
            return env.now

        assert env.run(until=env.process(body())) == 5

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            Process(env, lambda: None)

    def test_yielding_non_event_fails_process(self, env):
        def body():
            yield 42

        process = env.process(body())
        with pytest.raises(SimulationError):
            env.run(until=process)

    def test_is_alive_lifecycle(self, env):
        def body():
            yield env.timeout(5)

        process = env.process(body())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_process_waiting_on_another_process(self, env):
        def child():
            yield env.timeout(4)
            return "child-done"

        def parent():
            result = yield env.process(child())
            return f"saw {result}"

        assert env.run(until=env.process(parent())) == "saw child-done"

    def test_already_finished_event_resumes_immediately(self, env):
        done = env.timeout(1, value="v")

        def body():
            yield env.timeout(5)  # done is long processed by now
            value = yield done
            return value

        assert env.run(until=env.process(body())) == "v"


class TestFailures:
    def test_exception_in_body_fails_process(self, env):
        def body():
            yield env.timeout(1)
            raise RuntimeError("inside")

        process = env.process(body())
        with pytest.raises(RuntimeError):
            env.run(until=process)

    def test_failed_event_is_thrown_into_process(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(KeyError("payload"))

        def body():
            try:
                yield bad
            except KeyError:
                return "caught"

        env.process(failer())
        assert env.run(until=env.process(body())) == "caught"

    def test_uncaught_thrown_exception_fails_process(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(ValueError("x"))

        def body():
            yield bad

        env.process(failer())
        process = env.process(body())
        with pytest.raises(ValueError):
            env.run(until=process)


def traceback_functions(exc):
    names, tb = [], exc.__traceback__
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    return names


class TestStoredExceptionsFormNoCycle:
    """A failed event is never part of a reference cycle: its exception is
    stored without the kernel frame (which holds the process) and without
    the frames of any waiter it was thrown into (a waiter's locals hold the
    failed event)."""

    def test_crash_site_stays_and_the_kernel_frame_goes(self, env):
        def helper():
            raise ValueError("boom")

        def body():
            yield env.timeout(1)
            helper()

        process = env.process(body())
        process.defused = True
        env.run()
        assert traceback_functions(process.exception) == ["body", "helper"]

    def test_a_catching_waiter_leaves_no_frame_behind(self, env):
        def crasher():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter(target):
            try:
                yield target
            except ValueError as caught:
                seen.append(traceback_functions(caught))
            yield env.timeout(1)

        seen = []
        target = env.process(crasher())
        env.process(waiter(target))
        env.run()
        assert seen == [["waiter", "crasher"]]  # the handler sees where it is
        assert traceback_functions(target.exception) == ["crasher"]

    def test_a_waiter_that_catches_and_returns_leaves_no_frame_behind(self, env):
        def crasher():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter(target):
            try:
                yield target
            except ValueError:
                return "handled"

        target = env.process(crasher())
        waiting = env.process(waiter(target))
        env.run()
        assert waiting.value == "handled"
        assert traceback_functions(target.exception) == ["crasher"]

    def test_a_failure_crossing_processes_names_every_process_it_crossed(self, env):
        """No waiter's frame stays on the traceback (its locals hold the
        failed event, and from Python 3.12 on its ``f_back`` holds the
        kernel's frame and the whole stack below it); a note per crossing
        says who let it through, and where they were waiting."""

        def crasher():
            yield env.timeout(1)
            raise ValueError("boom")

        def middle(target):
            events = [target]  # what a waiter's locals usually hold
            yield env.all_of(events)

        def outer(target):
            try:
                yield target
            except ValueError:
                raise  # re-raised, not replaced

        first = env.process(crasher())
        second = env.process(middle(first), name="relay")
        third = env.process(outer(second))
        third.defused = True
        env.run()
        assert first.exception is second.exception is third.exception
        assert traceback_functions(third.exception) == ["crasher"]
        notes = third.exception.__notes__
        assert [note.split(" at ")[0] for note in notes] == [
            "passed through process 'relay'",
            "passed through process 'outer'",
        ]
        assert all(__file__ in note for note in notes)
        assert notes[0].endswith("in middle") and notes[1].endswith("in outer")
        assert str(third.exception) == "boom"  # the message itself is untouched

    def test_a_crossing_failure_dies_by_reference_count(self):
        """The failure is a timer's, as a timed-out RPC's is: no frame of
        its own, so all it could pick up is the waiters' (a crash site's
        frames keep the stack below them alive from Python 3.12 on)."""
        import gc
        import weakref

        class Boom(Exception):
            pass

        def waiter(env, target):
            events = [target]
            yield env.all_of(events)

        def world():
            env = Environment()
            failing = env.event()
            env.defer(1.0, lambda _event: failing.fail(Boom()))
            second = env.process(waiter(env, env.process(waiter(env, failing))))
            second.defused = True
            env.run()
            assert len(second.exception.__notes__) == 2
            return weakref.ref(second.exception)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert world()() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_an_exception_raised_while_handling_keeps_its_context(self, env):
        def crasher():
            yield env.timeout(1)
            raise ValueError("boom")

        def translator(target):
            try:
                yield target
            except ValueError as caught:
                raise KeyError("translated") from caught

        first = env.process(crasher())
        second = env.process(translator(first))
        second.defused = True
        env.run()
        assert traceback_functions(second.exception) == ["translator"]
        assert second.exception.__cause__ is first.exception
        assert traceback_functions(first.exception) == ["crasher"]


class TestInterrupts:
    def test_interrupt_is_catchable(self, env):
        def body():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        process = env.process(body())

        def interrupter():
            yield env.timeout(5)
            process.interrupt("reason")

        env.process(interrupter())
        assert env.run(until=process) == ("interrupted", "reason", 5)

    def test_interrupted_process_can_continue_waiting(self, env):
        def body():
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(10)
            return env.now

        process = env.process(body())

        def interrupter():
            yield env.timeout(5)
            process.interrupt()

        env.process(interrupter())
        assert env.run(until=process) == 15

    def test_stale_wakeup_after_interrupt_is_ignored(self, env):
        """The abandoned timeout firing later must not resume the process."""
        resumed_values = []

        def body():
            try:
                yield env.timeout(8, value="abandoned")
            except Interrupt:
                pass
            value = yield env.timeout(20, value="real")
            resumed_values.append(value)
            return value

        process = env.process(body())

        def interrupter():
            yield env.timeout(2)
            process.interrupt()

        env.process(interrupter())
        assert env.run(until=process) == "real"
        assert resumed_values == ["real"]

    def test_interrupting_finished_process_raises(self, env):
        def body():
            yield env.timeout(1)

        process = env.process(body())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()
