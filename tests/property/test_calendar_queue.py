"""Property test: the calendar queue pops in exactly the heap's order.

The kernel's correctness rests on one claim (``docs/performance.md``): the
bucketed :class:`repro.sim.queues.CalendarQueue` realizes the same
``(time, priority, sequence)`` total order as the ``heapq`` reference, so
swapping one for the other — including mid-run, when the kernel promotes a
grown heap — cannot change any simulation outcome.  These tests drive
randomized schedules through both structures and assert entry-for-entry
identity.

Two schedule regimes matter:

* **batch** — everything pushed up front, then drained (the migration
  path: :meth:`CalendarQueue.from_heap` receives a heap in one go);
* **interleaved** — pushes and pops mixed, with every push at or after
  the time of the last pop.  That restriction is the kernel's own clock
  invariant (an event can only schedule at ``now`` or later), and it is
  what makes the calendar's monotone cursor sound — so the generator
  enforces it rather than exploring schedules the kernel can never emit.

Timestamp ties (and full ``(time, priority)`` ties, where only the
sequence number breaks the order) are generated deliberately: ties are
where a bucketed structure would betray instability first.
"""

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.sim.queues import CalendarQueue

#: Small pools force collisions: with ~8 distinct times and 2 priorities,
#: a 200-entry schedule is mostly ties.
TIMES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.5, 100.0)
PRIORITIES = (0, 1)


@st.composite
def entries(draw, n_min=1, n_max=200):
    """A list of (time, priority, sequence, payload) entries, dense in ties."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    out = []
    for seq in range(n):
        time = draw(st.sampled_from(TIMES)) + draw(
            st.sampled_from((0.0, 0.0, 0.0, 1e-9, 0.125))
        )
        priority = draw(st.sampled_from(PRIORITIES))
        out.append((time, priority, seq, f"payload-{seq}"))
    return out


def drain(queue, n):
    return [queue.pop() for _ in range(n)]


class TestBatchSchedules:
    @given(entries(), st.sampled_from((0.1, 1.0, 64.0)))
    @settings(max_examples=150, deadline=None)
    def test_pop_order_matches_heap(self, schedule, width):
        heap = list(schedule)
        heapq.heapify(heap)
        expected = [heapq.heappop(heap) for _ in range(len(schedule))]

        calendar = CalendarQueue(width=width)
        for entry in schedule:
            calendar.push(entry)
        assert drain(calendar, len(schedule)) == expected

    @given(entries())
    @settings(max_examples=60, deadline=None)
    def test_from_heap_migration_preserves_order(self, schedule):
        heap = list(schedule)
        heapq.heapify(heap)
        # Pop a prefix from the heap, migrate the rest mid-drain — the
        # kernel's promotion path — and the tail must continue seamlessly.
        cut = len(heap) // 3
        prefix = [heapq.heappop(heap) for _ in range(cut)]
        migrated = CalendarQueue.from_heap(heap)
        tail = drain(migrated, len(schedule) - cut)
        assert prefix + tail == sorted(schedule)

    @given(entries())
    @settings(max_examples=60, deadline=None)
    def test_peek_time_is_next_pop_time(self, schedule):
        calendar = CalendarQueue()
        for entry in schedule:
            calendar.push(entry)
        for _ in range(len(schedule)):
            assert calendar.peek_time() == calendar.pop()[0]


class TestInterleavedSchedules:
    @given(
        entries(n_max=120),
        st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=120),
        st.sampled_from((0.1, 1.0, 64.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_push_pop_matches_heap(self, schedule, pop_bursts, width):
        """Pops interleaved with pushes; pushed times respect the clock.

        ``pop_bursts[i]`` pops are attempted after push *i*.  A pushed
        entry whose time precedes the last pop (the simulated "now") is
        lifted to that time, mirroring the kernel invariant that nothing
        schedules in the past.
        """
        heap = []
        calendar = CalendarQueue(width=width)
        now = 0.0
        popped_heap = []
        popped_calendar = []
        bursts = iter(pop_bursts + [0] * len(schedule))
        for entry in schedule:
            if entry[0] < now:
                entry = (now, entry[1], entry[2], entry[3])
            heapq.heappush(heap, entry)
            calendar.push(entry)
            for _ in range(min(next(bursts), len(heap))):
                expected = heapq.heappop(heap)
                actual = calendar.pop()
                popped_heap.append(expected)
                popped_calendar.append(actual)
                now = expected[0]
        popped_heap.extend(heapq.heappop(heap) for _ in range(len(heap)))
        remaining = len(popped_heap) - len(popped_calendar)
        popped_calendar.extend(drain(calendar, remaining))
        assert popped_calendar == popped_heap

    @given(entries(n_max=80))
    @settings(max_examples=60, deadline=None)
    def test_length_tracks_contents(self, schedule):
        calendar = CalendarQueue()
        for pushed, entry in enumerate(schedule, start=1):
            calendar.push(entry)
            assert len(calendar) == pushed
        for remaining in range(len(schedule) - 1, -1, -1):
            calendar.pop()
            assert len(calendar) == remaining


INF = float("inf")
#: p0 ticks (and the defer chain fires) at exactly this instant: events *at*
#: the deadline belong to the run.
DEADLINE = 12.0
RUN_FORMS = ("drain", "deadline", "event")
#: inf pins the heap, 0 runs on the calendar from the first event, 5
#: crosses the heap -> calendar migration a handful of events in.
PROMOTE_AT = (INF, 0, 5)
FLAVOURS = ("plain", "bystander_fails", "target_fails")


class TestKernelEquivalence:
    """Every ``run`` form, on either queue structure, pooled or not, is
    bit-identical to dispatching the same simulation through ``step()``."""

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
    def _run(cls, form="deadline", promote_at=0, pooling=False, flavour="plain", stepwise=False):
        env = Environment(promote_at=promote_at, pooling=pooling)
        log = []
        target = cls._scenario(env, log, flavour)
        try:
            outcome = ("returned", cls._drive(env, form, target, stepwise))
        except ValueError as exc:
            outcome = ("raised", str(exc))
        return log, outcome, env.now

    def test_heap_and_calendar_runs_identical(self):
        assert self._run(promote_at=INF) == self._run(promote_at=0)

    def test_promotion_mid_run_is_transparent(self):
        assert self._run(promote_at=INF) == self._run(promote_at=5)

    @pytest.mark.parametrize("flavour", FLAVOURS)
    @pytest.mark.parametrize("pooling", (False, True), ids=("unpooled", "pooled"))
    @pytest.mark.parametrize("promote_at", PROMOTE_AT, ids=("heap", "calendar", "promoted"))
    @pytest.mark.parametrize("form", RUN_FORMS)
    def test_run_matches_step_loop(self, form, promote_at, pooling, flavour):
        ref_log, ref_outcome, ref_now = self._run(
            form, promote_at=INF, flavour=flavour, stepwise=True
        )
        log, outcome, now = self._run(form, promote_at, pooling, flavour)
        assert log == ref_log
        assert outcome == ref_outcome
        if form == "deadline" and outcome[0] == "returned":
            # step() leaves the clock on the last event; run(until=t) on t.
            assert ref_now <= now == DEADLINE
        else:
            assert now == ref_now
        if flavour != "plain":
            assert outcome[0] == "raised"  # the failure must still propagate

    @pytest.mark.parametrize("pooling", (False, True), ids=("unpooled", "pooled"))
    def test_until_event_reports_drained_queue_after_promotion(self, pooling):
        ref_log, _, ref_now = self._run("drain", promote_at=INF, stepwise=True)
        env = Environment(promote_at=5, pooling=pooling)
        log = []
        self._scenario(env, log, "plain")
        with pytest.raises(SimulationError, match="queue drained"):
            env.run(until=env.event())  # never triggered
        assert not isinstance(env._queue, list)  # the run did promote
        assert log == ref_log and env.now == ref_now
