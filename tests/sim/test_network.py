"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError, RequestTimeout, SimulationError
from repro.metrics.counters import Metrics
from repro.sim.kernel import Environment
from repro.sim.network import (
    FixedLatency,
    LogNormalLatency,
    Message,
    Network,
    Node,
    UniformLatency,
)


class Echo(Node):
    """Replies to ping with n+1; counts what it saw."""

    def __init__(self, name="echo"):
        super().__init__(name)
        self.seen = []

    def handle_message(self, message):
        if message.kind == "ping":
            self.seen.append(message.kind)
            self.reply(message, "pong", "test", n=message["n"] + 1)
        elif message.kind == "note":
            self.seen.append(message.kind)
        else:
            raise NotImplementedError(f"unexpected {message.kind!r}")


class Client(Node):
    def __init__(self, name="client"):
        super().__init__(name)


class TestRegistration:
    def test_duplicate_names_rejected(self, env, network):
        network.register(Echo("a"))
        with pytest.raises(SimulationError):
            network.register(Echo("a"))

    def test_node_lookup(self, env, network):
        node = network.register(Echo("a"))
        assert network.node("a") is node
        with pytest.raises(NetworkError):
            network.node("missing")

    def test_send_to_unknown_destination_rejected(self, env, network):
        client = network.register(Client())
        with pytest.raises(NetworkError):
            client.send("ghost", "ping", "test")

    def test_unregistered_node_cannot_send(self, env):
        orphan = Client("orphan")
        with pytest.raises(SimulationError):
            orphan.send("x", "ping", "test")


class TestDelivery:
    def test_fixed_latency_delivery_time(self, env, network):
        echo = network.register(Echo())
        client = network.register(Client())
        client.send("echo", "note", "test", n=0)
        env.run()
        assert echo.seen == ["note"]
        assert env.now == 1.0

    def test_request_reply_roundtrip(self, env, network):
        network.register(Echo())
        client = network.register(Client())

        def body():
            reply = yield client.request("echo", "ping", "test", n=10)
            return reply["n"]

        assert env.run(until=env.process(body())) == 11
        assert env.now == 2.0  # two one-way hops

    def test_reply_message_does_not_hit_handler(self, env, network):
        echo = network.register(Echo())
        client = network.register(Client())

        def body():
            yield client.request("echo", "ping", "test", n=1)

        env.run(until=env.process(body()))
        assert echo.seen == ["ping"]  # the pong resolved the waiter instead

    def test_unhandled_kind_raises(self, env, network):
        network.register(Echo())
        client = network.register(Client())
        client.send("echo", "mystery", "test")
        with pytest.raises(NotImplementedError):
            env.run()


class TestFailures:
    def test_request_timeout_fires(self, env, network):
        network.register(Echo())
        client = network.register(Client())
        network.fail_link("client", "echo")

        def body():
            try:
                yield client.request("echo", "ping", "test", timeout=5, n=1)
            except RequestTimeout:
                return "timeout"

        assert env.run(until=env.process(body())) == "timeout"
        assert env.now == 5

    def test_heal_link_restores_delivery(self, env, network):
        echo = network.register(Echo())
        client = network.register(Client())
        network.fail_link("client", "echo")
        client.send("echo", "note", "test", n=1)
        network.heal_link("client", "echo")
        client.send("echo", "note", "test", n=2)
        env.run()
        assert len(echo.seen) == 1

    def test_crashed_node_drops_messages(self, env, network):
        echo = network.register(Echo())
        client = network.register(Client())
        echo.crash()
        client.send("echo", "note", "test", n=1)
        env.run()
        assert echo.seen == []

    def test_recovered_node_receives_again(self, env, network):
        echo = network.register(Echo())
        client = network.register(Client())
        echo.crash()
        echo.recover()
        client.send("echo", "note", "test", n=1)
        env.run()
        assert echo.seen == ["note"]

    def test_drop_rate_validation(self, env):
        with pytest.raises(SimulationError):
            Network(env, Metrics(), drop_rate=1.5)

    def test_reply_after_timeout_is_ignored(self, env):
        """A straggler reply arriving after the timeout must not blow up."""
        network = Network(env, Metrics(), latency=FixedLatency(10.0))
        network.register(Echo())
        client = network.register(Client())

        def body():
            try:
                yield client.request("echo", "ping", "test", timeout=5, n=1)
            except RequestTimeout:
                pass
            yield env.timeout(100)  # let the straggler pong arrive
            return "survived"

        assert env.run(until=env.process(body())) == "survived"


class TestAnsweredRpcIsNotPinned:
    """The RPC timer outlives an answered request by up to ``timeout``
    units; it must not keep the request message, its payload or the waiter
    alive for that long (it used to be a closure over all three)."""

    @staticmethod
    def reachable_from(root):
        import gc
        import types

        def referents(obj):
            if isinstance(obj, types.FunctionType):  # what it captured, not its module
                return list(obj.__closure__ or ())
            return gc.get_referents(obj)

        seen = {id(root): root}
        frontier = [root]
        while frontier:
            for referent in referents(frontier.pop()):
                if id(referent) not in seen and not isinstance(referent, (type, types.ModuleType)):
                    seen[id(referent)] = referent
                    frontier.append(referent)
        return list(seen.values())

    def test_kernel_queue_forgets_the_request_once_replied(self, env, network):
        sent = []

        class Hook(Metrics):  # class-level: the reachability walk stops at types
            on_message = staticmethod(lambda message, now: sent.append(message))

        network.metrics = Hook()
        network.register(Echo())
        client = network.register(Client())

        def body():
            reply = yield client.request("echo", "ping", "test", timeout=500, n=1)
            return reply["n"]

        assert env.run(until=env.process(body())) == 2
        request, reply = sent
        assert (request.kind, reply.reply_to) == ("ping", request.msg_id)
        assert env.peek() == 500  # the timer is still queued
        pinned = self.reachable_from(env._queue)
        assert not any(obj is request or obj is request.payload for obj in pinned)
        assert not any(isinstance(obj, Message) for obj in pinned)
        env.run()  # the timer fires into nothing
        assert env.now == 500 and network._pending == {}

    def test_timed_out_rpc_fails_with_the_same_text(self, env, network):
        network.register(Echo())
        client = network.register(Client())
        network.fail_link("client", "echo")
        waiter = client.request("echo", "ping", "test", timeout=7.5, n=1)
        waiter.defused = True
        env.run()
        assert isinstance(waiter.exception, RequestTimeout)
        assert str(waiter.exception) == "ping client->echo timed out after 7.5"
        assert network._pending == {} and network._pending_rpc == {}

    def test_request_has_no_nested_function(self):
        import inspect
        import types

        for function in (Network.request, Network._expire_rpc):
            nested = [c for c in function.__code__.co_consts if isinstance(c, types.CodeType)]
            # Comprehensions are code objects before 3.12; a ``def`` or ``lambda`` is the point.
            nested = [c.co_name for c in nested if not c.co_name.endswith(("comp>", "<genexpr>"))]
            assert nested == [], inspect.getsource(function)


class TestAccounting:
    def test_message_hook_sees_every_send(self, env):
        class Hook(Metrics):
            def __init__(self):
                super().__init__()
                self.categories = []

            def on_message(self, message, now):
                self.categories.append(message.category)

        hook = Hook()
        network = Network(env, hook)
        network.register(Echo())
        client = network.register(Client())

        def body():
            yield client.request("echo", "ping", "cat-a", n=1)

        env.run(until=env.process(body()))
        assert hook.categories == ["cat-a", "test"]

    def test_dropped_messages_still_counted(self, env):
        class Hook(Metrics):
            def __init__(self):
                super().__init__()
                self.count = 0

            def on_message(self, message, now):
                self.count += 1

        hook = Hook()
        network = Network(env, hook)
        echo = network.register(Echo())
        client = network.register(Client())
        network.fail_link("client", "echo")
        client.send("echo", "note", "test", n=1)
        env.run()
        assert hook.count == 1
        assert echo.seen == []

    def test_tracer_records_send_and_receive(self, env):
        network = Network(env, Metrics(trace=True))
        tracer = network.metrics.tracer
        network.register(Echo())
        client = network.register(Client())
        client.send("echo", "note", "test", n=1)
        env.run()
        assert [record.category for record in tracer] == ["net.send", "net.recv"]


class TestLatencyModels:
    def test_fixed_negative_rejected(self):
        with pytest.raises(SimulationError):
            FixedLatency(-1)

    def test_uniform_bounds_validated(self):
        with pytest.raises(SimulationError):
            UniformLatency(5, 1)

    def test_uniform_samples_within_bounds(self):
        import random

        model = UniformLatency(1.0, 2.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng, "a", "b") <= 2.0

    def test_lognormal_respects_minimum(self):
        import random

        model = LogNormalLatency(mu=-10, sigma=0.1, minimum=0.5)
        rng = random.Random(0)
        for _ in range(100):
            assert model.sample(rng, "a", "b") >= 0.5

    def test_message_getitem_and_get(self):
        message = Message(1, "a", "b", "k", {"x": 1}, "cat")
        assert message["x"] == 1
        assert message.get("missing", "default") == "default"
