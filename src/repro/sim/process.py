"""Generator-based processes for the simulation kernel.

A *process* wraps a Python generator that ``yield``\\ s
:class:`~repro.sim.events.Event` objects.  Each time a yielded event is
processed, the generator resumes with the event's value (or has the event's
exception thrown into it).  The process itself is an event: it triggers when
the generator returns (success, with the ``return`` value) or raises
(failure).

Processes support *interrupts*: ``process.interrupt(cause)`` throws an
:class:`Interrupt` into the generator at the current simulation time,
regardless of what the process is waiting on.  Stale resumptions from the
abandoned wait target are suppressed by identity: the process remembers the
one event it expects to be woken by (``_wake``), and a resumption from any
other event is ignored.  Events are processed at most once, so identity is
as discriminating as an epoch counter while letting every wait share the
single bound-method callback ``self._resume`` instead of allocating a
closure per wait.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """An event representing the lifetime of a generator-based activity."""

    __slots__ = ("_generator", "_target", "_wake", "name")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._wake: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(env)
        bootstrap.succeed(None)
        self._wait_on(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self._triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (or ``None``)."""
        return self._target

    def _note_crossing(self, exc: BaseException, waiting_at: Any) -> None:
        """Record on ``exc`` that it passed through this process uncaught."""
        where = ""
        if waiting_at is not None:
            code = waiting_at.tb_frame.f_code
            where = f" at {code.co_filename}:{waiting_at.tb_lineno} in {code.co_name}"
        notes = getattr(exc, "__notes__", None)
        if notes is None:
            exc.__notes__ = notes = []  # type: ignore[attr-defined]
        notes.append(f"passed through process {self.name!r}{where}")

    # -- interrupt ---------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._target = None
        poke = Event(self.env)
        poke.fail(Interrupt(cause), priority=URGENT)
        poke.defused = True
        self._wake = poke  # the abandoned wait target's wake-up is now stale
        poke.add_callback(self._resume)

    # -- stepping ----------------------------------------------------------

    def _wait_on(self, event: Event) -> None:
        self._target = self._wake = event
        event.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        """Step the generator until it waits on an unprocessed event.

        Exceptions are stored so that a failed event is never part of a
        reference cycle and dies by reference count like everything else a
        run drops:

        * a crashed generator's exception becomes this process's failure
          with the kernel's own frame stripped from its traceback (that
          frame holds ``self``: process -> exception -> traceback -> frame
          -> process); the generator's frames stay, for debugging (from
          Python 3.12 on they hold the stack below them too, see next
          point: there a crashed process that something keeps is still
          the collector's);
        * an exception thrown into the generator picks up the waiter's
          frames, and a waiter's locals usually hold the very event that
          stores the exception; from Python 3.12 on a finished generator
          frame also keeps its ``f_back``, i.e. this frame and through it
          the whole stack down to whoever owns the world.  So the
          exception leaves with the traceback it arrived with, whether the
          waiter handled it or let it through.  A failure that crosses
          processes still says which ones: each adds a note
          (``__notes__``, printed with the traceback from 3.11 on) naming
          itself and the line it was waiting at.
        """
        if event is not self._wake or self._triggered:
            return  # stale wake-up from an abandoned wait target
        self._wake = None
        self._target = None
        self.env._active_process = self
        try:
            while True:
                thrown = event._exception
                try:
                    if thrown is None:
                        target = self._generator.send(event.value if event.triggered else None)
                    else:
                        event.defused = True
                        arrived_with = thrown.__traceback__
                        target = self._generator.throw(thrown)
                        thrown.__traceback__ = arrived_with
                except StopIteration as stop:
                    if thrown is not None:
                        thrown.__traceback__ = arrived_with
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # generator crashed
                    crash_site = exc.__traceback__.tb_next
                    if exc is thrown:  # let through: nothing of ours stays on it
                        self._note_crossing(exc, None if crash_site is arrived_with else crash_site)
                        crash_site = arrived_with
                    elif thrown is not None:
                        thrown.__traceback__ = arrived_with
                    self.fail(exc.with_traceback(crash_site))
                    return
                if not isinstance(target, Event):
                    error = SimulationError(f"process yielded a non-event: {target!r}")
                    self._generator.close()
                    self.fail(error)
                    return
                if target.processed:
                    event = target  # already done: step again immediately
                    continue
                self._wait_on(target)
                return
        finally:
            self.env._active_process = None
