"""A fired timeout stays what it was.

A :class:`~repro.sim.events.Timeout` has one life cycle — allocated, fired,
let go — so an object held past its firing keeps its own value, reads as
processed and has no callback list, however many timeouts and ``defer``
chains the world schedules afterwards.

The environment is the one the testbed builds (``build_cluster``), because
that is where a recycling kernel used to be switched on: while the testbed
pooled its timeouts, the next ``timeout()`` or ``defer()`` re-armed the held
object with someone else's value and an empty callback list, and this test
failed.
"""

from __future__ import annotations

from repro.workloads.testbed import build_cluster


def test_a_held_timeout_keeps_its_own_value_after_firing():
    env = build_cluster(n_servers=1, items_per_server=1, seed=7).env
    held = env.timeout(1.0, "mine")
    env.run(until=2.0)
    assert held.processed and held.value == "mine"

    fired = []
    for index in range(16):
        env.timeout(0.5, f"theirs-{index}")
        env.defer(0.25, fired.append, f"deferred-{index}")
    env.run(until=4.0)

    assert len(fired) == 16
    assert held.value == "mine"
    assert held.processed
    assert held.callbacks is None
