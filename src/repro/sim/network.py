"""Simulated message-passing network.

Nodes (:class:`Node`) register with a :class:`Network`, which delivers typed
:class:`Message` objects after a latency drawn from a :class:`LatencyModel`.
The network supports request/reply exchanges with optional timeouts and
node crashes — enough to exercise the recovery behaviour of 2PC/2PVC
(Section V-C of the paper).

The network holds no fault state.  It decides one thing on its own: a
message whose destination is down at delivery time is lost.  Every other
loss or delay is the verdict of the one chaos hook (``Network.chaos``, the
nemesis of :mod:`repro.chaos.nemesis`), asked once per send.

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
from typing import TYPE_CHECKING, Any, Dict, Generator, Mapping, Optional, Tuple

from repro.errors import NetworkError, RequestTimeout, SimulationError
from repro.obs.spans import KIND_RPC, Span, context_of
from repro.sim.events import Event
from repro.sim.kernel import DeadlineLine, Environment
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
        #: Estimated bytes on the wire, set where they are charged: by the
        #: region counters on a cross-region message (``estimate_message_size``).
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
    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        """Draw the delay of one message from ``src`` to ``dst``.

        The network calls this for every delivery, passing the message's
        wire size as ``size_bytes`` when it is already known.  Size-aware
        models (:class:`repro.sim.topology.RegionalLatency`) add a
        message-size / bandwidth transfer term; the others ignore the
        payload.
        """


class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative latency {delay!r}")
        self.delay = delay

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"invalid latency bounds [{low}, {high}]")
        self.low = low
        self.high = high

    def sample_message(
        self,
        rng: random.Random,
        src: str,
        dst: str,
        payload: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> float:
        return rng.uniform(self.low, self.high)


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
    ) -> None:
        self.env = env
        self.metrics = metrics
        self.rng = rng or random.Random(0)  # verify: ignore[DET005] -- seeded default keeps un-wired networks deterministic
        self.latency = latency or FixedLatency(1.0)
        #: Optional chaos hook (:class:`repro.chaos.nemesis.ChaosHook`): the
        #: one drop-or-delay decision per send, drawing from its own seeded
        #: RNG stream so enabling it never perturbs the base trace.
        self.chaos: Optional[Any] = None
        self.nodes: Dict[str, Node] = {}
        self._pending: Dict[int, Event] = {}
        #: Open RPC spans keyed by request msg_id (closed on reply/timeout).
        self._pending_rpc: Dict[int, Span] = {}
        #: RPC timers: one deadline line per distinct ``request`` timeout.
        self.deadlines: Dict[float, DeadlineLine] = {}
        self._next_msg_id = 1

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
        extra_delay = 0.0
        if self.chaos is not None:
            drop, extra_delay = self.chaos.on_send(message, self.env.now)
            if drop:
                self.metrics.message_dropped(message, "chaos", self.env.now)
                return message
        delay = self.latency.sample_message(self.rng, src, dst, message.payload, message.wire_size)
        # One kernel event per message.  Sends that arrive at the same
        # instant are delivered in send order: same-instant events are
        # processed in push order (the queue breaks the tie on sequence
        # number alone).
        self.env.defer(delay + extra_delay, self._deliver_message, message)
        return message

    def _deliver_message(self, arrival: Event) -> None:
        message: Message = arrival.value
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
            for line in self.deadlines.values():
                line.discard(message.reply_to)
            rpc_span = self._pending_rpc.pop(message.reply_to, None)
            if rpc_span is not None:
                self.metrics.spans.finish(rpc_span, self.env.now)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
            return
        result = node.handle_message(message)
        if result is not None:
            self.env.process(result)

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
            line = self.deadlines.get(timeout)
            if line is None:
                line = self.deadlines[timeout] = DeadlineLine(self.env, timeout, self._expire_rpc)
            line.add(message.msg_id, (kind, src, dst, timeout))
        return waiter

    def _expire_rpc(self, msg_id: int, rpc: Tuple[str, str, str, float]) -> None:
        """RPC timer: the reply did not come in time (its delivery discards it)."""
        kind, src, dst, timeout = rpc
        waiter = self._pending.pop(msg_id)
        rpc_span = self._pending_rpc.pop(msg_id, None)
        if rpc_span is not None:
            self.metrics.spans.finish(rpc_span, self.env.now, status="timeout")
        self.metrics.faults.on_timeout()
        waiter.fail(RequestTimeout(f"{kind} {src}->{dst} timed out after {timeout}"))
