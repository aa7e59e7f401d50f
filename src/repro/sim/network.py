"""Simulated message-passing network.

Nodes (:class:`Node`) register with a :class:`Network`, which delivers typed
:class:`Message` objects after a latency drawn from a :class:`LatencyModel`.
The network supports request/reply exchanges with optional timeouts, node
crashes, link failures, and probabilistic message drops — enough to exercise
the recovery behaviour of 2PC/2PVC (Section V-C of the paper).

Every message carries a *category* string.  Categories are the unit of
accounting for the paper's Table I: protocol messages (voting, decision,
update, master-version fetches) are counted separately from infrastructure
traffic (OCSP checks, policy replication), exactly as the paper's analysis
does.

The network records through one collaborator, the world's
:class:`repro.metrics.counters.Metrics` handle, and every registered node
learns the same handle from it.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Mapping, Optional, Set, Tuple

from repro.errors import NetworkError, RequestTimeout, SimulationError
from repro.obs.spans import KIND_RPC, Span, context_of
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.tracing import Pairs

if TYPE_CHECKING:  # repro.metrics imports this module
    from repro.metrics.counters import Metrics


class Message:
    """A single network message.

    ``payload`` is treated as immutable by convention; handlers must not
    mutate it.  ``category`` is the accounting bucket (see module docstring).

    A plain ``__slots__`` class rather than a dataclass: scale runs create
    tens of millions of these, and skipping the per-instance ``__dict__``
    (and the dataclass ``__init__`` indirection) is a measurable win.
    """

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "kind",
        "payload",
        "category",
        "reply_to",
        "wire_size",
        "trace_items",
    )

    def __init__(
        self,
        msg_id: int,
        src: str,
        dst: str,
        kind: str,
        payload: Mapping[str, Any],
        category: str,
        reply_to: Optional[int] = None,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.category = category
        self.reply_to = reply_to
        #: Estimated bytes on the wire (:func:`repro.sim.topology.
        #: estimate_message_size`), stored by the first party that sizes
        #: the message so the next one does not walk the payload again.
        self.wire_size: Optional[int] = None
        #: The details of this message's ``net.send`` / ``net.recv`` trace
        #: records (:class:`repro.metrics.counters.Metrics`), on traced runs.
        self.trace_items: Optional[Pairs] = None

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into the payload."""
        return self.payload.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def __repr__(self) -> str:
        return (
            f"Message(msg_id={self.msg_id}, src={self.src!r}, dst={self.dst!r}, "
            f"kind={self.kind!r}, category={self.category!r}, reply_to={self.reply_to})"
        )


class LatencyModel(abc.ABC):
    """Distribution of one-way message delays."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        """Draw a delay for a message from ``src`` to ``dst``."""

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        """Delay for a concrete message.

        The default ignores the payload and delegates to :meth:`sample`;
        size-aware models (:class:`repro.sim.topology.RegionalLatency`)
        override this to add a message-size / bandwidth transfer term.
        The network calls this entry point for every delivery, passing the
        message's wire size as ``size_bytes`` when it is already known.
        """
        return self.sample(rng, src, dst)


class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative latency {delay!r}")
        self.delay = delay

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        # Skips two call frames on the per-message hot path.
        return self.delay


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"invalid latency bounds [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return rng.uniform(self.low, self.high)

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        # Skips a call frame on the per-message hot path.
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delays (WAN-like): exp(N(mu, sigma)), floored at ``minimum``."""

    def __init__(self, mu: float = 0.0, sigma: float = 0.5, minimum: float = 0.01) -> None:
        if sigma < 0 or minimum < 0:
            raise SimulationError("sigma and minimum must be non-negative")
        self.mu = mu
        self.sigma = sigma
        self.minimum = minimum

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return max(self.minimum, rng.lognormvariate(self.mu, self.sigma))


class Node:
    """Base class for everything that can send and receive messages."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.env: Optional[Environment] = None
        self.network: Optional["Network"] = None
        #: The world's observation handle, learned at ``Network.register``.
        self.metrics: Optional["Metrics"] = None
        self._down = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_down(self) -> bool:
        """Whether the node is currently crashed."""
        return self._down

    def crash(self) -> None:
        """Crash the node: incoming messages are dropped until recovery."""
        self._down = True
        if self.network is not None:
            self.metrics.node_crashed(self.name, self.env.now)
        self.on_crash()

    def recover(self) -> None:
        """Bring the node back up and run its recovery hook."""
        self._down = False
        if self.network is not None:
            self.metrics.node_recovered(self.name, self.env.now)
        self.on_recover()

    def on_crash(self) -> None:
        """Subclass hook invoked on crash (e.g. discard volatile state)."""

    def on_recover(self) -> None:
        """Subclass hook invoked on recovery (e.g. replay the WAL)."""

    # -- messaging ---------------------------------------------------------

    def handle_message(self, message: Message) -> Optional[Generator[Event, Any, Any]]:
        """Process an incoming (non-reply) message.

        May return a generator, which the network runs as a process — use
        this for handlers that need to wait (lock acquisition, OCSP checks).
        """
        raise NotImplementedError(f"{self.name} cannot handle {message.kind!r}")

    def send(
        self, dst: str, kind: str, category: str, span: Any = None, **payload: Any
    ) -> Message:
        """Fire-and-forget send.  ``span`` (if any) is propagated as the
        receiver's causal parent via the ``span_ctx`` payload key."""
        network = self.network  # inlined _net(): send is the hottest node call
        if network is None:
            raise SimulationError(f"node {self.name!r} is not registered with a network")
        return network.send(self.name, dst, kind, payload, category, span=span)

    def request(
        self,
        dst: str,
        kind: str,
        category: str,
        timeout: Optional[float] = None,
        span: Any = None,
        **payload: Any,
    ) -> Event:
        """Send and return an event that resolves with the reply message.

        When ``span`` is given (and its trace is sampled) the network opens
        an ``rpc.<kind>`` child span covering the full round trip; the
        receiver's handler parents under that RPC span.
        """
        return self._net().request(
            self.name, dst, kind, payload, category, timeout=timeout, span=span
        )

    def reply(self, to: Message, kind: str, category: str, **payload: Any) -> Message:
        """Answer a request message."""
        return self._net().send(self.name, to.src, kind, payload, category, reply_to=to.msg_id)

    def _net(self) -> "Network":
        if self.network is None:
            raise SimulationError(f"node {self.name!r} is not registered with a network")
        return self.network


class Network:
    """Delivers messages between registered nodes.

    ``metrics`` is the network's one observation collaborator: every send,
    drop, delivery, crash, recovery and RPC timeout is reported to it as one
    fact, and it alone decides which recorders hear which (counters, trace,
    flight ring); RPC spans are opened and closed on ``metrics.spans``.
    """

    def __init__(
        self,
        env: Environment,
        metrics: "Metrics",
        rng: Optional[random.Random] = None,
        latency: Optional[LatencyModel] = None,
        drop_rate: float = 0.0,
    ) -> None:
        self.env = env
        self.metrics = metrics
        self.rng = rng or random.Random(0)  # verify: ignore[DET005] -- seeded default keeps un-wired networks deterministic
        self.latency = latency or FixedLatency(1.0)
        #: Optional chaos hook (:class:`repro.chaos.nemesis.ChaosHook`):
        #: consulted per send *after* link/rate checks, drawing from its own
        #: seeded RNG stream so enabling it never perturbs the base trace.
        self.chaos: Optional[Any] = None
        if not 0.0 <= drop_rate < 1.0:
            raise SimulationError(f"drop_rate must be in [0, 1), got {drop_rate!r}")
        self.drop_rate = drop_rate
        self.nodes: Dict[str, Node] = {}
        self.failed_links: Set[Tuple[str, str]] = set()
        self._pending: Dict[int, Event] = {}
        #: Open RPC spans keyed by request msg_id (closed on reply/timeout).
        self._pending_rpc: Dict[int, Span] = {}
        self._next_msg_id = 1
        #: Same-timestamp delivery batch: consecutive sends that arrive at
        #: the same instant share one kernel event (see ``send``).
        self._batch: Optional[List[Message]] = None
        self._batch_when = -1.0
        self._batch_seq = -1

    # -- topology ----------------------------------------------------------

    def register(self, node: Node) -> Node:
        """Attach a node to this network (names must be unique)."""
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        node.env = self.env
        node.network = self
        node.metrics = self.metrics
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a registered node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def fail_link(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Start dropping messages on a link."""
        self.failed_links.add((src, dst))
        if bidirectional:
            self.failed_links.add((dst, src))

    def heal_link(self, src: str, dst: str, bidirectional: bool = True) -> None:
        """Stop dropping messages on a link."""
        self.failed_links.discard((src, dst))
        if bidirectional:
            self.failed_links.discard((dst, src))

    # -- sending -----------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Mapping[str, Any],
        category: str,
        reply_to: Optional[int] = None,
        span: Any = None,
    ) -> Message:
        """Send a message; delivery is scheduled after a sampled latency.

        The message is *counted* (``Metrics.on_message``) at send time,
        matching the paper's convention of counting messages sent, whether
        or not they arrive.  ``span`` (a :class:`repro.obs.spans.Span` or
        context tuple) is embedded as the ``span_ctx`` payload key so the
        receiver's handler can parent its work under the sender's span.
        """
        if dst not in self.nodes:
            raise NetworkError(f"unknown destination {dst!r}")
        body = payload  # immutable by convention; copied only if annotated
        if span is not None:
            ctx = context_of(span)
            if ctx is not None:
                body = dict(payload)
                body["span_ctx"] = ctx
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        message = Message(msg_id, src, dst, kind, body, category, reply_to)
        self.metrics.on_message(message, self.env.now)
        # Drop-reason resolution preserves the historical RNG consumption
        # order exactly (link check short-circuits before the rate draw);
        # the chaos hook runs last and draws only from its *own* seeded
        # stream, so installing it never perturbs the base trace.
        drop_reason: Optional[str] = None
        extra_delay = 0.0
        if (src, dst) in self.failed_links:
            drop_reason = "link"
        elif self.drop_rate > 0 and self.rng.random() < self.drop_rate:
            drop_reason = "rate"
        elif self.chaos is not None:
            chaos_drop, extra_delay = self.chaos.on_send(message, self.env.now)
            if chaos_drop:
                drop_reason = "chaos"
                extra_delay = 0.0
        if drop_reason is not None:
            self.metrics.message_dropped(message, drop_reason, self.env.now)
        else:
            delay = self.latency.sample_message(
                self.rng, src, dst, message.payload, message.wire_size
            )
            delay += extra_delay
            env = self.env
            when = env._now + delay
            # Same-timestamp batching: if this message arrives at the exact
            # instant of the currently open batch AND no kernel event has
            # been scheduled since that batch's timeout (the sequence
            # counter is untouched), its own timeout would carry the very
            # next sequence number — so delivering it from the same kernel
            # event preserves the global (time, priority, sequence) order
            # bit-for-bit while saving a queue entry per message.
            if when == self._batch_when and env._seq == self._batch_seq and self._batch is not None:
                self._batch.append(message)
            else:
                batch = [message]
                self._batch = batch
                self._batch_when = when
                env.defer(delay, self._deliver_batch, batch)
                self._batch_seq = env._seq
        return message

    def _deliver_batch(self, arrival_event: Event) -> None:
        batch: List[Message] = arrival_event.value
        if batch is self._batch:
            # Close the batch: nothing may append after delivery has run.
            self._batch = None
        deliver = self._deliver_message
        for message in batch:
            deliver(message)

    def _deliver_message(self, message: Message) -> None:
        node = self.nodes.get(message.dst)
        if node is None or node.is_down:
            # Dropped on the floor; requesters rely on timeouts.  Counted
            # so fault runs can audit where their messages went.
            self.metrics.faults.on_drop("down")
            return
        self.metrics.message_delivered(message, self.env.now)
        if message.reply_to is not None:
            # A reply resolves its pending request; replies to fire-and-forget
            # sends and stragglers arriving after a timeout are dropped.
            waiter = self._pending.pop(message.reply_to, None)
            rpc_span = self._pending_rpc.pop(message.reply_to, None)
            if rpc_span is not None:
                self.metrics.spans.finish(rpc_span, self.env.now)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
            return
        result = node.handle_message(message)
        if result is not None:
            self.env.process(result, name=f"{node.name}.handle[{message.kind}]")

    # -- request/reply -------------------------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Mapping[str, Any],
        category: str,
        timeout: Optional[float] = None,
        span: Any = None,
    ) -> Event:
        """Send a message and return an event resolving with the reply.

        If ``timeout`` elapses first, the event fails with
        :class:`RequestTimeout`.  When ``span`` is given, an ``rpc.<kind>``
        child span covers the round trip (closed at reply delivery, or at
        timeout with ``status="timeout"`` — server work outliving a
        timed-out RPC is the one sanctioned parent-window escape).
        """
        rpc: Optional[Span] = None
        if span is not None:
            ctx = context_of(span)
            if ctx is not None:
                rpc = self.metrics.spans.start(
                    ctx[0], f"rpc.{kind}", KIND_RPC, src, self.env.now, parent=ctx, dst=dst
                )
        message = self.send(src, dst, kind, payload, category, span=rpc if rpc is not None else span)
        waiter = self.env.event()
        self._pending[message.msg_id] = waiter
        if rpc is not None:
            self._pending_rpc[message.msg_id] = rpc
        if timeout is not None:
            # A plain tuple through the timer's value, not a closure: the
            # timer outlives an answered RPC by up to ``timeout`` units and
            # must not pin the request message, its payload or the waiter.
            self.env.defer(timeout, self._expire_rpc, (message.msg_id, kind, src, dst, timeout))
        return waiter

    def _expire_rpc(self, timer: Event) -> None:
        """RPC timer: fail the waiter unless the reply got there first."""
        msg_id, kind, src, dst, timeout = timer.value
        waiter = self._pending.pop(msg_id, None)
        if waiter is None:  # answered: reply delivery popped it
            return
        rpc_span = self._pending_rpc.pop(msg_id, None)
        if rpc_span is not None:
            self.metrics.spans.finish(rpc_span, self.env.now, status="timeout")
        self.metrics.faults.on_timeout()
        waiter.fail(RequestTimeout(f"{kind} {src}->{dst} timed out after {timeout}"))
