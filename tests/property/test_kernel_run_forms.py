"""Every ``run`` form of the kernel dispatches exactly like a ``step()`` loop.

:meth:`repro.sim.kernel.Environment.step` is the canonical single-event
dispatch; ``Environment._dispatch`` inlines the same body for speed behind
all three :meth:`~repro.sim.kernel.Environment.run` forms (drain, deadline,
target event).  These tests run one scenario — processes on staggered
timers, a self-re-arming ``defer`` chain, optionally a failing process —
through each run form and compare the event log, the outcome and the clock
against the same scenario stepped by hand.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Environment

INF = float("inf")
#: p0 ticks (and the defer chain fires) at exactly this instant: events *at*
#: the deadline belong to the run.
DEADLINE = 12.0
RUN_FORMS = ("drain", "deadline", "event")
FLAVOURS = ("plain", "bystander_fails", "target_fails")


class TestKernelEquivalence:
    """Every ``run`` form is bit-identical to dispatching the same
    simulation through ``step()``."""

    @staticmethod
    def _scenario(env, log, flavour):
        """Processes, a self-re-arming ``defer`` chain, optionally a failure;
        returns the process ``run(until=event)`` waits for."""

        def ping(name, period, jitter, fail_at=None):
            for tick in range(12):
                yield env.timeout(period + (tick % 3) * jitter)
                log.append((env.now, name, tick))
                if tick == fail_at:
                    raise ValueError(f"{name} failed")
            return name

        def chain(event):
            log.append((env.now, "defer", event.value))
            if event.value < 30:
                env.defer(0.75, chain, event.value + 1)

        env.defer(0.75, chain, 0)
        procs = [
            env.process(
                ping(
                    f"p{index}",
                    1.0 + index * 0.5,
                    0.125 * index,
                    fail_at=2 if (flavour == "target_fails" and index == 3) else None,
                )
            )
            for index in range(7)
        ]
        if flavour == "bystander_fails":
            env.process(ping("bomb", 2.25, 0.0, fail_at=3))
        return procs[3]

    @staticmethod
    def _drive(env, form, target, stepwise):
        if not stepwise:
            return env.run(until={"drain": None, "deadline": DEADLINE, "event": target}[form])
        if form == "event":
            while not target.processed:
                env.step()
            return target.value
        limit = DEADLINE if form == "deadline" else INF
        while (when := env.peek()) != INF and when <= limit:
            env.step()
        return None

    @classmethod
    def _run(cls, form="deadline", flavour="plain", stepwise=False):
        env = Environment()
        log = []
        target = cls._scenario(env, log, flavour)
        try:
            outcome = ("returned", cls._drive(env, form, target, stepwise))
        except ValueError as exc:
            outcome = ("raised", str(exc))
        return log, outcome, env.now

    @pytest.mark.parametrize("flavour", FLAVOURS)
    @pytest.mark.parametrize("form", RUN_FORMS)
    def test_run_matches_step_loop(self, form, flavour):
        ref_log, ref_outcome, ref_now = self._run(form, flavour, stepwise=True)
        log, outcome, now = self._run(form, flavour)
        assert log == ref_log
        assert outcome == ref_outcome
        if form == "deadline" and outcome[0] == "returned":
            # step() leaves the clock on the last event; run(until=t) on t.
            assert ref_now <= now == DEADLINE
        else:
            assert now == ref_now
        if flavour != "plain":
            assert outcome[0] == "raised"  # the failure must still propagate

    def test_until_event_reports_drained_queue(self):
        ref_log, _, ref_now = self._run("drain", stepwise=True)
        env = Environment()
        log = []
        self._scenario(env, log, "plain")
        with pytest.raises(SimulationError, match="queue drained"):
            env.run(until=env.event())  # never triggered
        assert log == ref_log and env.now == ref_now
