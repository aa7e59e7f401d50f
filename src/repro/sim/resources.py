"""Capacity-limited resources for the simulation kernel.

A :class:`Resource` models a pool of identical service slots (CPU threads,
I/O channels).  Processes ``yield resource.acquire()`` and call
``resource.release()`` when done — or use :meth:`using` for the
acquire/work/release pattern:

    with-style (generator)::

        slot = yield server.cpu.acquire()
        try:
            yield env.timeout(work)
        finally:
            server.cpu.release()

Grants are strictly FIFO, so a capacity-1 resource is a fair mutex.
The cloud server uses an optional Resource to bound how many handlers
execute concurrently (``CloudConfig.server_concurrency``), which makes
saturation effects measurable in load experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Environment


class Resource:
    """A FIFO pool of ``capacity`` identical slots."""

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Peak concurrent usage observed (for assertions and reports).
        self.peak_usage = 0
        #: Total grants handed out.
        self.total_grants = 0

    # -- state -------------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiters)

    # -- operations ----------------------------------------------------------

    def acquire(self) -> Event:
        """Request a slot; the returned event succeeds when granted."""
        event = self.env.event()
        if self._in_use < self.capacity:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot; the oldest waiter (if any) is granted in place."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without a held slot")
        self._in_use -= 1
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue  # cancelled
            self._grant(waiter)
            break

    def _grant(self, event: Event) -> None:
        self._in_use += 1
        self.total_grants += 1
        if self._in_use > self.peak_usage:
            self.peak_usage = self._in_use
        event.succeed(self)

    def using(self, work_generator):
        """Run a generator while holding one slot (acquire/finally-release).

        Usage inside a process::

            yield from resource.using(self._do_work(...))
        """

        def _wrapped():
            yield self.acquire()
            try:
                result = yield from work_generator
            finally:
                self.release()
            return result

        return _wrapped()
