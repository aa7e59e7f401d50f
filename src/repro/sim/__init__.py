"""Discrete-event simulation substrate.

This package is a self-contained SimPy-style kernel plus a simulated network:

* :class:`~repro.sim.kernel.Environment` — clock and event loop.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`.
* :class:`~repro.sim.process.Process` — generator-based concurrency.
* :class:`~repro.sim.network.Network` / :class:`~repro.sim.network.Node` —
  message passing with latency models, crashes, and drops.
* :class:`~repro.sim.rng.RandomStreams` — reproducible named RNG streams.
* :class:`~repro.sim.tracing.Tracer` — structured trace recording.
"""
