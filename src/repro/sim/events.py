"""Event primitives for the discrete-event simulation kernel.

The design follows the classic SimPy shape: an :class:`Event` is a one-shot
promise living inside an :class:`~repro.sim.kernel.Environment`.  Processes
(:mod:`repro.sim.process`) ``yield`` events and are resumed when the event is
*processed* by the kernel's event loop.

Three states:

``pending``
    created but not yet triggered; callbacks may still be added.
``triggered``
    a value or exception has been set and the event sits in the kernel queue.
``processed``
    the kernel has popped it and run its callbacks.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError

_PENDING = object()

#: Scheduling priorities: URGENT events are popped before NORMAL events that
#: share the same timestamp.  Interrupts use URGENT so that a process is
#: interrupted before it would otherwise resume.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence inside the simulation.

    Events carry either a *value* (on success) or an *exception* (on
    failure).  Waiting processes receive the value via ``yield`` or have the
    exception thrown into them.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "defused",
        "_pooled",
    )

    def __init__(self, env: "Environment") -> None:  # noqa: F821 (forward ref)
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        #: True once some consumer has taken responsibility for a failure.
        self.defused = False
        #: True only for pool-managed timeouts (see ``Environment.timeout``):
        #: the run loop recycles the object once its callbacks have run.
        #: Anything that retains an event past its firing must clear it.
        self._pooled = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether a value or exception has been set."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the kernel has already run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if not self._triggered:
            raise SimulationError("event is not yet triggered")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The success value (raises if the event failed or is pending)."""
        if self._value is _PENDING:
            if self._exception is not None:
                raise self._exception
            raise SimulationError("event has no value yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Set a success value and enqueue the event for processing."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        # Zero-delay schedule, pushed directly: equivalent to
        # ``env.schedule(self, 0.0, priority)`` without the delay check.
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        q = env._queue
        if q.__class__ is list:
            heappush(q, (env._now, priority, seq, self))
            if len(q) > env._promote_at:
                env._promote()
        else:
            q.push((env._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Set a failure exception and enqueue the event for processing."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._exception = exception
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        q = env._queue
        if q.__class__ is list:
            heappush(q, (env._now, priority, seq, self))
            if len(q) > env._promote_at:
                env._promote()
        else:
            q.push((env._now, priority, seq, self))
        return self

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately;
        this keeps "wait on an already-finished event" race-free.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are by far the most common event kind (every simulated network
    hop and service time is one), so ``__init__`` inlines the
    :class:`Event` constructor and pushes straight onto the kernel queue —
    one attribute-init pass and one ``heappush`` instead of two ``__init__``
    frames plus a ``schedule`` call.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.defused = False
        self._pooled = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        q = env._queue
        if q.__class__ is list:
            heappush(q, (env._now + delay, NORMAL, seq, self))
            if len(q) > env._promote_at:
                env._promote()
        else:
            q.push((env._now + delay, NORMAL, seq, self))


class Condition(Event):
    """Base for events composed of several child events (AllOf / AnyOf)."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:  # noqa: F821
        super().__init__(env)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            # Pin children: the condition reads child.value after they fire,
            # so pooled timeouts must not be recycled out from under it.
            event._pooled = False
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _collect(self) -> List[Any]:
        return [event.value for event in self.events if event.processed and event.ok]

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Succeeds when *all* children succeed; fails as soon as one fails.

    The success value is the list of child values in construction order.
    Children that fail *after* the condition has already triggered are
    defused (the condition took responsibility for them when it was
    created), so stragglers never crash the kernel.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if not event.ok:
            event.defused = True
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(Condition):
    """Succeeds when the *first* child succeeds (value = ``(index, value)``).

    Fails if a child fails before any succeeds; child failures arriving
    after the condition triggered are defused like in :class:`AllOf`.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if not event.ok:
            event.defused = True
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        index = self.events.index(event)
        self.succeed((index, event.value))
