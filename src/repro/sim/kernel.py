"""The discrete-event simulation environment (clock + event loop).

:class:`Environment` owns the simulated clock and a priority queue of
triggered events.  :meth:`Environment.step` pops the earliest event, advances
the clock to its timestamp, and runs its callbacks; :meth:`Environment.run`
steps until a deadline, a target event, or queue exhaustion.

Unhandled event failures are *strict*: if a failed event is processed and no
callback defuses it, the exception propagates out of :meth:`run`.  This turns
silent protocol bugs into loud test failures.

Performance notes
-----------------
The event loop is the innermost loop of every simulated run, so
:meth:`Environment.run` inlines the pop → advance-clock → dispatch sequence
instead of calling :meth:`step` per event: at hundreds of thousands of
events per second the per-event function call is a measurable fraction of
total cost.  All three ``run`` forms share one loop (``_dispatch``);
:meth:`step` remains the canonical single-event reference — the inlined
body must stay behaviourally identical to it
(``tests/property/test_kernel_run_forms.py`` compares every run form against
a ``step()`` loop).  The queue is one ``heapq`` list of plain
``(time, sequence, event)`` tuples, so events due at the same instant are
processed in push order, whatever their kind.  Every push site pushes onto
it directly: tuple comparison happens in C, which beats any ``__slots__``
class with a Python-level ``__lt__``.  Timers that are almost always
stopped first (RPC timeouts) wait on a :class:`DeadlineLine`, one queue
entry per line, so the queue holds events that can still do something:
29 entries on average and ~100 at most on the heaviest benchmark workload
(4 630 and 8 188 while every RPC queued its own timer), where a binary
heap has the best constant.

A :class:`Timeout` has one life cycle: allocated by :meth:`timeout` /
:meth:`defer`, fired by the loop, let go by reference count.  Nothing
recycles it, so whoever holds a fired timeout — a condition reading its
children, ``run(until=event)`` its target, a test — keeps what it saw
(``tests/sim/test_fired_timeouts.py``).

The dispatch loop (and :func:`repro.chaos.fuzz.run_case`, for a whole case)
runs under :func:`collector_suspended` — the one place in ``src/`` that
touches :mod:`gc`; it says why that is free of charge — and
:meth:`Environment.close` is the other half: it lets a finished world die by
reference count as well.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, NoReturn, Optional, Tuple, Union

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process

_QueueEntry = Tuple[float, int, Event]


class _Closed:
    """What a closed environment has for a sequence counter.

    Every push site takes the next sequence number before it pushes, so a
    counter that refuses to be incremented closes them all at no cost to
    the open world.
    """

    __slots__ = ()

    def __add__(self, other: int) -> NoReturn:
        raise SimulationError("cannot schedule an event on a closed environment")


_CLOSED = _Closed()


@contextmanager
def collector_suspended() -> Generator[None, None, None]:
    """Run the body with CPython's cyclic collector off; leave it as found.

    A simulated run creates no cyclic garbage (``tests/sim/test_gc_discipline.py``),
    so a pass inside one frees nothing and costs (retained state) x (passes)
    ("The collector" in docs/performance.md).  Only the outermost suspension
    acts; a nested one leaves the collector off.  Its exit takes the young
    pass the next allocation would start if the young generation is over its
    threshold, so that pass is paid in the caller's frame, not in whoever
    allocates next.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        if gc.get_count()[0] > gc.get_threshold()[0]:
            gc.collect(0)


class DeadlineLine:
    """Many deadlines of one fixed ``delay``, at most one queue entry.

    ``add(key, value)`` behaves exactly like ``Timeout(env, delay)`` pushed
    at that moment with a callback that runs ``fire(key, value)`` — unless
    ``discard(key)`` (O(1)) comes first.  The line is for timers that are
    almost always stopped before they expire (an answered RPC's): they cost
    a dict entry, not a queue entry that outlives them.

    ``add`` takes the next sequence number as a ``Timeout`` would and keeps
    ``(now + delay, seq, value)`` in an insertion-ordered dict; with one
    delay, insertion order is ``(time, seq)`` order.  Only the oldest live
    deadline is *armed*: an ordinary :class:`Event` pushed at that
    deadline's own reserved ``(time, seq)``.  A discarded head leaves its
    entry in place.  When the entry pops, it fires its deadline if still
    live, then arms the next live one; a line left empty arms a no-op at
    its newest reserved slot if that slot is still ahead.  The line has no
    loop of its own: the kernel pops its entries like any other.

    Invariants:

    * A deadline that fires runs at the same ``(time, seq)`` as its
      ``Timeout`` would: its entry carries that slot, and is pushed at the
      ``add`` or at the previous head's pop, both earlier in that order
      (the clock never goes back, so neither does ``now + delay``).
    * No other event's sequence number changes: ``add`` consumes exactly
      the one a ``Timeout`` would, arming consumes none.
    * ``now`` after a drain is unchanged: the last slot the line reserved is
      popped (by its deadline or by the no-op), and a discarded deadline
      before it ran no callback, so nothing saw the ``now`` it skipped.
    * ``add`` on a closed environment raises, as every push does (the
      ``_CLOSED`` counter); ``close()`` drops the armed entry with the rest.
    """

    __slots__ = ("env", "delay", "_fire", "_deadlines", "_armed", "_newest")

    def __init__(self, env: "Environment", delay: float, fire: Callable[[Any, Any], None]) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.delay = delay
        self._fire = fire
        self._deadlines: Dict[Any, Tuple[float, int, Any]] = {}
        #: Sequence number of the queued entry, or ``None`` if none is.
        self._armed: Optional[int] = None
        self._newest: Tuple[float, int, Any] = (0.0, -1, None)

    def add(self, key: Any, value: Any = None) -> None:
        """Run ``fire(key, value)`` ``delay`` units from now unless discarded."""
        if key in self._deadlines:
            raise SimulationError(f"deadline {key!r} is already pending")
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        entry = (env._now + self.delay, seq, value)
        self._deadlines[key] = entry
        self._newest = entry
        if self._armed is None:
            self._arm(entry[0], seq)

    def discard(self, key: Any) -> None:
        """Cancel ``key``'s deadline, if it is still pending."""
        self._deadlines.pop(key, None)

    def _arm(self, when: float, seq: int) -> None:
        event = Event(self.env)
        event._triggered = True
        event.callbacks.append(self._pop)  # type: ignore[union-attr]
        self._armed = seq
        heappush(self.env._queue, (when, seq, event))

    def _pop(self, _entry: Event) -> None:
        deadlines = self._deadlines
        due = None
        for key, (_when, seq, value) in deadlines.items():
            if seq == self._armed:  # armed for a deadline still live
                due = key, value
            break
        if due is not None:
            del deadlines[due[0]]
        head = next(iter(deadlines.values()), None)
        if head is not None:
            self._arm(head[0], head[1])
        elif self._newest[1] != self._armed:
            self._arm(self._newest[0], self._newest[1])  # the no-op that ends a drained run in time
        else:
            self._armed = None
        if due is not None:
            self._fire(*due)


class Environment:
    """A simulated world with its own clock and event loop."""

    __slots__ = ("_now", "_queue", "_seq")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueEntry] = []
        #: Next sequence number; :data:`_CLOSED` once :meth:`close` ran.
        self._seq = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def defer(self, delay: float, fn: Callable[[Event], None], value: Any = None) -> Timeout:
        """``timeout(delay, value)`` with ``fn`` installed, in one call.

        The combined fast path saves a call frame per event on the hottest
        pattern in the codebase (schedule-then-subscribe, e.g. every network
        delivery); behaviourally identical to
        ``timeout(delay, value).add_callback(fn)``.
        """
        timeout = Timeout(self, delay, value)
        timeout.callbacks.append(fn)  # type: ignore[union-attr]
        return timeout

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Launch a generator as a concurrent process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that succeeds once every event in ``events`` succeeds."""
        return AllOf(self, list(events))

    # -- scheduling -------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, event))

    def close(self) -> None:
        """Forget every pending event and whatever waits on one.

        Each of them holds this environment, so a world dropped with events
        still queued (``run(until=...)``) is cyclic garbage.  So is every
        wait: a waiter holds its target and the target's callback list
        holds the waiter.  Nothing will fire these events any more, so their
        waiters are unhooked too, transitively (a process waiting on a
        process waiting on a timer); a process nobody else holds ends there,
        its generator closed.  After ``close()`` the
        world dies by reference count, and scheduling an event or calling
        :meth:`run` raises :class:`SimulationError`.  Waits on events only a
        node can trigger (a queued lock request, an RPC with no timer) are
        not reachable from here: a world closed mid-flight leaves those
        pairs, not itself, to the collector.  See
        :meth:`repro.workloads.testbed.Cluster.close`.
        """
        if self._seq is _CLOSED:
            return
        stranded = [entry[2] for entry in self._queue]
        self._queue.clear()
        self._seq = _CLOSED  # type: ignore[assignment]
        while stranded:
            event = stranded.pop()
            callbacks = event.callbacks
            if not callbacks:
                continue  # nobody waits on it (or it was processed long ago)
            event.callbacks = []
            for callback in callbacks:
                if not isinstance(callback, Event):  # a process is its own callback
                    callback = getattr(callback, "__self__", None)
                if isinstance(callback, Event):
                    stranded.append(callback)

    def peek(self) -> float:
        """Timestamp of the next queued event, or ``inf`` if the queue is empty.

        A :class:`DeadlineLine` queues only its oldest deadline (possibly
        discarded since), so deadlines behind it are not seen here.
        """
        q = self._queue
        return q[0][0] if q else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to its timestamp).

        This is the canonical dispatch sequence; ``_dispatch`` inlines the
        same body for speed and must stay equivalent to it.
        """
        q = self._queue
        if not q:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heappop(q)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._exception is not None and not event.defused:
            raise event._exception

    # -- run loop --------------------------------------------------------------

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until the queue drains; returns ``None``.
        * a number — run until the clock reaches that time; returns ``None``.
        * an :class:`Event` — run until that event is processed; returns the
          event's value (or raises its exception).
        """
        if self._seq is _CLOSED:
            raise SimulationError("run() on a closed environment")
        if isinstance(until, Event):
            return self._run_until_event(until)
        if until is None:
            self._dispatch(float("inf"))
            return None
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        self._dispatch(deadline)
        self._now = deadline
        return None

    def _run_until_event(self, target: Event) -> Any:
        if target.processed:
            return target.value

        def _finish(event: Event) -> None:
            event.defused = True
            raise StopSimulation(event)

        target.add_callback(_finish)
        try:
            self._dispatch(float("inf"))
        except StopSimulation:
            return target.value  # raises the exception if target failed
        raise SimulationError("run(until=event): queue drained before event triggered")

    def _dispatch(self, deadline: float) -> None:
        """Process every queued event with timestamp ``<= deadline``.

        The one dispatch loop behind all three :meth:`run` forms: ``inf``
        drains the queue, and ``run(until=event)`` leaves through the
        :class:`StopSimulation` its target's callback raises.

        The loop runs under :func:`collector_suspended`, whichever way it is
        left (deadline, drained queue, :class:`StopSimulation`, a failed
        event).  :meth:`step` does not touch the collector.
        """
        with collector_suspended():
            q = self._queue
            while q and q[0][0] <= deadline:
                when, _seq, event = heappop(q)
                # Inlined step() body — keep in sync.
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._exception is not None and not event.defused:
                    raise event._exception
