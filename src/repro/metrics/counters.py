"""Counters and the observation handle of one simulated world.

The paper evaluates its protocols on three axes (Section VI-A): message
complexity, proof-evaluation complexity, and log complexity.  Messages and
proof evaluations are counted here; forced log writes are read off each
node's WAL.  Counters are kept both globally (by category) and per
transaction (messages whose payload carries a ``txn_id``), so benches can
report exact per-transaction protocol costs against the Table I formulas.

:class:`Metrics` is also the one handle through which every component
*records*: one method per recorded fact, each deciding once which recorders
hear it and with which fields (the table in docs/architecture.md, "Effects
and the observation handle").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.cloud.messages import PROTOCOL_CATEGORIES
from repro.db.locks import LOCK_GRANT, LOCK_RELEASE, LockMode
from repro.metrics.timeline import PROOF_EVAL, TXN_DONE, TXN_READY, TXN_START
from repro.obs.spans import SpanRecorder
from repro.policy.rules import EngineCounters
from repro.sim.network import Message
from repro.sim.topology import RegionTopology, estimate_message_size
from repro.sim.tracing import Pairs, Tracer

if TYPE_CHECKING:  # repro.obs.live / .flight sit above the metrics layer
    from repro.metrics.stats import TransactionOutcome
    from repro.obs.flight import FlightRecorder
    from repro.obs.live import LiveTelemetry
    from repro.policy.proofs import ProofOfAuthorization


class MessageCounters:
    """Counts messages by category, and by (transaction, category)."""

    def __init__(self) -> None:
        self.by_category: Counter = Counter()
        self.by_txn: Dict[str, Counter] = {}

    def on_message(self, message: Message) -> None:
        """Count one message sent."""
        self.by_category[message.category] += 1
        txn_id = message.payload.get("txn_id")
        if txn_id is not None:
            counter = self.by_txn.get(txn_id)
            if counter is None:  # construct on miss only: this runs per message
                counter = self.by_txn[txn_id] = Counter()
            counter[message.category] += 1

    # queries ------------------------------------------------------------------

    def total(self, categories: Optional[Iterable[str]] = None) -> int:
        """Total messages, optionally restricted to some categories."""
        if categories is None:
            return sum(self.by_category.values())
        return sum(self.by_category[category] for category in categories)

    def protocol_total(self) -> int:
        """Messages counted by the paper's Table I (protocol categories)."""
        return self.total(PROTOCOL_CATEGORIES)

    def for_txn(self, txn_id: str, categories: Optional[Iterable[str]] = None) -> int:
        """Messages attributed to one transaction."""
        counter = self.by_txn.get(txn_id, Counter())
        if categories is None:
            return sum(counter.values())
        return sum(counter[category] for category in categories)

    def protocol_for_txn(self, txn_id: str) -> int:
        """Protocol (Table I) messages attributed to one transaction."""
        return self.for_txn(txn_id, PROTOCOL_CATEGORIES)

    def breakdown_for_txn(self, txn_id: str) -> Dict[str, int]:
        """Category → count for one transaction."""
        return dict(self.by_txn.get(txn_id, Counter()))


class RegionMessageCounters:
    """Per region-pair message and byte accounting (topology runs only).

    Inactive (every hook a no-op) until :meth:`configure` binds a
    :class:`repro.sim.topology.RegionTopology`; the testbed does that when
    a cluster is built with ``CloudConfig.topology`` set.  Messages are
    bucketed by ``(src region, dst region)``; bytes use the same
    deterministic wire-size estimate the bandwidth model charges, so the
    two views agree.  Host-side accounting only — never part of the
    Table I complexity numbers.
    """

    def __init__(self) -> None:
        self.topology: Optional[RegionTopology] = None
        self.by_pair: Counter = Counter()
        self.bytes_by_pair: Counter = Counter()
        self.cross_region = 0
        self.intra_region = 0

    def configure(self, topology: RegionTopology) -> None:
        """Bind the topology that classifies node pairs into region pairs."""
        self.topology = topology

    def on_message(self, message: Message) -> None:
        if self.topology is None:
            return
        pair = (
            self.topology.region_of(message.src),
            self.topology.region_of(message.dst),
        )
        self.by_pair[pair] += 1
        size = message.wire_size
        if size is None:
            size = message.wire_size = estimate_message_size(message.payload)
        self.bytes_by_pair[pair] += size
        if pair[0] == pair[1]:
            self.intra_region += 1
        else:
            self.cross_region += 1

    def cross_region_bytes(self) -> int:
        """Estimated bytes that crossed a region boundary."""
        return sum(
            count for pair, count in self.bytes_by_pair.items() if pair[0] != pair[1]
        )


class ProofCounters:
    """Counts proof-of-authorization evaluations (the ``eval(f, t)`` calls)."""

    def __init__(self) -> None:
        self.total = 0
        self.by_server: Counter = Counter()
        self.by_txn: Counter = Counter()

    def on_proof(self, server: str, txn_id: Optional[str] = None) -> None:
        self.total += 1
        self.by_server[server] += 1
        if txn_id is not None:
            self.by_txn[txn_id] += 1

    def for_txn(self, txn_id: str) -> int:
        return self.by_txn[txn_id]


class ProofCacheCounters:
    """Hit/miss/invalidation accounting for the proof-evaluation cache.

    Every ``eval(f, t)`` still counts in :class:`ProofCounters` (the cache
    is transparent to Table I complexity accounting); these counters report
    how much *host* work the cache saved and how often invalidation hooks
    fired.  A *bypass* is an evaluation the cache declined to serve or store
    (e.g. an uncacheable revocation checker).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.invalidations = 0
        self.retentions = 0
        self.hits_by_server: Counter = Counter()
        self.misses_by_server: Counter = Counter()

    def on_hit(self, server: str) -> None:
        self.hits += 1
        self.hits_by_server[server] += 1

    def on_miss(self, server: str) -> None:
        self.misses += 1
        self.misses_by_server[server] += 1

    def on_bypass(self, server: str) -> None:
        self.bypasses += 1

    def on_invalidation(self, server: str, entries_dropped: int = 1) -> None:
        self.invalidations += entries_dropped

    def on_retention(self, server: str, entries_kept: int = 1) -> None:
        """Entries a predicate-precise policy install carried over instead
        of dropping (see :meth:`ProofCache.invalidate_policy`)."""
        self.retentions += entries_kept

    @property
    def lookups(self) -> int:
        """Cacheable evaluations (hits + misses; bypasses excluded)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable evaluations served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class FaultCounters:
    """Fault-injection and graceful-degradation accounting.

    Populated by the network (drops, crashes, recoveries, request
    timeouts), the transaction manager's retry wrapper, the lock manager's
    crash teardown, and the recovery path's in-doubt resolution.  Host-side
    accounting only — never part of the Table I complexity numbers — but
    essential for auditing chaos runs: a fault schedule whose injected
    drops don't show up here was not actually applied.
    """

    def __init__(self) -> None:
        #: Messages dropped, by reason: ``link`` (failed link), ``rate``
        #: (probabilistic drop), ``chaos`` (fault-plan verdict), ``down``
        #: (destination crashed at delivery time).
        self.drops_by_reason: Counter = Counter()
        self.crashes = 0
        self.recoveries = 0
        #: Request timeouts that actually fired (waiter failed).
        self.timeouts = 0
        #: RPC retry attempts after a timeout (retry wrapper enabled).
        self.retries = 0
        #: In-doubt transactions resolved via the termination protocol
        #: after a crash restart, and those still unresolved after the
        #: bounded retry budget.
        self.in_doubt_resolved = 0
        self.in_doubt_unresolved = 0
        #: Queued lock waits failed by a crash teardown, and granted locks
        #: discarded with them.
        self.lock_waits_cancelled = 0
        self.locks_dropped_on_crash = 0

    @property
    def messages_dropped(self) -> int:
        return sum(self.drops_by_reason.values())

    def on_drop(self, reason: str) -> None:
        self.drops_by_reason[reason] += 1

    def on_crash(self) -> None:
        self.crashes += 1

    def on_recovery(self) -> None:
        self.recoveries += 1

    def on_timeout(self) -> None:
        self.timeouts += 1

    def on_retry(self) -> None:
        self.retries += 1

    def snapshot(self) -> Dict[str, int]:
        """Stable name → count map (drop reasons prefixed ``dropped_``)."""
        counts: Dict[str, int] = {
            f"dropped_{reason}": count
            for reason, count in self.drops_by_reason.items()
        }
        counts.update(
            crashes=self.crashes,
            recoveries=self.recoveries,
            timeouts=self.timeouts,
            retries=self.retries,
            in_doubt_resolved=self.in_doubt_resolved,
            in_doubt_unresolved=self.in_doubt_unresolved,
            lock_waits_cancelled=self.lock_waits_cancelled,
            locks_dropped_on_crash=self.locks_dropped_on_crash,
        )
        return counts


class VerificationCounters:
    """Trace-sanitizer accounting (see :mod:`repro.verify.conformance`).

    Updated whenever the conformance checker runs over a recorded trace —
    via the ``CloudConfig.verify_traces`` hook, ``Cluster.verify()``, or the
    ``python -m repro.verify`` CLI.  Host-side only; never part of the
    Table I complexity numbers.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.events_checked = 0
        self.transactions_checked = 0
        self.violations = 0
        self.violations_by_code: Counter = Counter()

    def on_report(self, report: "object") -> None:
        """Fold one :class:`repro.verify.report.VerificationReport` in."""
        self.runs += 1
        self.events_checked += getattr(report, "events_checked", 0)
        self.transactions_checked += getattr(report, "transactions_checked", 0)
        violations = getattr(report, "violations", ())
        self.violations += len(violations)
        for violation in violations:
            self.violations_by_code[violation.code] += 1


def _message_items(message: Message, extra: Tuple[str, Any]) -> Pairs:
    """The details of a ``net.*`` record, in key order: ``dst, kind,
    [msg_category], [query_id], [reason], src, [txn_id]``; ``extra`` is the
    ``msg_category`` or the ``reason`` pair.  ``txn_id`` / ``query_id`` (when
    the payload carries them) let offline checkers correlate wire traffic per
    transaction."""
    payload = message.payload
    query_id = payload.get("query_id")
    txn_id = payload.get("txn_id")
    dst, kind, src = ("dst", message.dst), ("kind", message.kind), ("src", message.src)
    items: Pairs
    if query_id is None:
        items = (dst, kind, extra, src)
    elif extra[0] < "query_id":
        items = (dst, kind, extra, ("query_id", query_id), src)
    else:
        items = (dst, kind, ("query_id", query_id), extra, src)
    if txn_id is not None:
        items += (("txn_id", txn_id),)
    return items


def _wire_items(message: Message) -> Pairs:
    """What ``net.send`` and ``net.recv`` say of a message: one tuple, built
    by whichever is recorded first and kept on the message for the other."""
    items = message.trace_items
    if items is None:
        extra = ("msg_category", message.category)
        items = message.trace_items = _message_items(message, extra)
    return items


class Metrics:
    """Everything one simulated world counts and records, behind one handle.

    Seven counter groups (``messages``, ``proofs``, ``proof_cache``,
    ``regions``, ``verification``, ``faults``, ``engine``) plus the world's
    recorders: the retained :attr:`tracer`, the causal :attr:`spans`, and —
    attached by the testbed when their ``CloudConfig`` knobs are on —
    :attr:`live` telemetry and the :attr:`flight` recorder.  The handle holds
    the recorders; no recorder holds the handle (a world stays acyclic).

    Components record *facts* through the typed methods below, one call per
    fact.  Each method holds, once, the ``enabled`` / ``is None`` checks and
    the projection of its fact onto the recorders that hear it; a disabled
    recorder costs one attribute test, before any detail is built.  A fact
    only a counter hears is a direct call on its group
    (``metrics.faults.on_retry()``).  Spans follow control flow, so opening
    and closing them stays an explicit call on ``metrics.spans``.

    ``streaming`` enables constant-memory accounting for unbounded runs:
    the per-transaction attribution maps (``messages.by_txn``,
    ``proofs.by_txn``) are evicted through :meth:`release_txn` as each
    transaction finishes, so their size is bounded by the number of
    *in-flight* transactions instead of growing with the run.  Global and
    by-category counters are untouched either way, and the per-transaction
    counts are read into the :class:`~repro.metrics.stats.TransactionOutcome`
    before eviction — report and export columns are identical in both modes.
    """

    def __init__(
        self,
        streaming: bool = False,
        trace: bool = False,
        spans: bool = False,
        sample_rate: float = 1.0,
    ) -> None:
        self.streaming = streaming
        self.messages = MessageCounters()
        self.proofs = ProofCounters()
        self.proof_cache = ProofCacheCounters()
        #: Region-pair message/byte accounting (active on topology runs).
        self.regions = RegionMessageCounters()
        #: Trace-sanitizer results (runs, events checked, violations).
        self.verification = VerificationCounters()
        #: Fault-injection accounting (drops, crashes, timeouts, retries).
        self.faults = FaultCounters()
        #: Inference-engine work accounting (facts scanned, rules tried,
        #: table hits, …), accumulated across every uncached proof
        #: evaluation the servers run.  Host-side accounting only — never
        #: part of the Table I complexity numbers.
        self.engine = EngineCounters()
        #: Retained trace (``Cluster.tracer``); the conformance evidence.
        self.tracer = Tracer(enabled=trace)
        #: Causal span recorder (``Cluster.obs``).
        self.spans = SpanRecorder(enabled=spans, sample_rate=sample_rate)
        self.live: Optional["LiveTelemetry"] = None
        self.flight: Optional["FlightRecorder"] = None

    # -- facts: the network ----------------------------------------------------

    def on_message(self, message: Message, now: float) -> None:
        """A message was sent (counted at send time, delivered or not)."""
        self.messages.on_message(message)
        self.regions.on_message(message)
        if self.flight is not None:
            self.flight.on_message(message, now)
        if self.tracer.enabled:
            self.tracer.record(now, "net.send", _wire_items(message))

    def message_dropped(self, message: Message, reason: str, now: float) -> None:
        """The network dropped a message at send time (link / rate / chaos)."""
        self.faults.on_drop(reason)
        if self.tracer.enabled:
            self.tracer.record(now, "net.drop", _message_items(message, ("reason", reason)))

    def message_delivered(self, message: Message, now: float) -> None:
        """A message reached a live node."""
        if self.tracer.enabled:
            self.tracer.record(now, "net.recv", _wire_items(message))

    def node_crashed(self, node: str, now: float) -> None:
        """A node crashed.  The trace record lets the conformance checker
        excuse locks a crashed participant never released."""
        self.faults.on_crash()
        if self.tracer.enabled:
            self.tracer.record(now, "fault.crash", (("node", node),))
        if self.flight is not None:
            self.flight.record(node, now, "fault.crash")

    def node_recovered(self, node: str, now: float) -> None:
        """A crashed node restarted."""
        self.faults.on_recovery()
        if self.tracer.enabled:
            self.tracer.record(now, "fault.recover", (("node", node),))
        if self.flight is not None:
            self.flight.record(node, now, "fault.recover")

    # -- facts: the transaction lifecycle --------------------------------------

    def txn_started(
        self, coordinator: str, txn_id: str, approach: str, consistency: str, now: float
    ) -> None:
        """α(T): a coordinator took a transaction on."""
        if self.tracer.enabled:
            self.tracer.record(now, TXN_START, (("txn_id", txn_id),))
        if self.flight is not None:
            detail = (("approach", approach), ("consistency", consistency))
            self.flight.record(coordinator, now, "txn.start", txn_id, detail)

    def txn_ready(self, txn_id: str, now: float) -> None:
        """ω(T): every query executed, the commit-time protocol starts."""
        if self.tracer.enabled:
            self.tracer.record(now, TXN_READY, (("txn_id", txn_id),))

    def txn_finished(self, coordinator: str, outcome: "TransactionOutcome") -> None:
        """A transaction reached its global decision."""
        now = outcome.finished_at
        if self.tracer.enabled:
            items = (("committed", outcome.committed), ("txn_id", outcome.txn_id))
            self.tracer.record(now, TXN_DONE, items)
        if self.live is not None:
            self.live.observe_outcome(outcome, coordinator=coordinator)
        if self.flight is not None:
            reason = outcome.abort_reason.value if outcome.abort_reason else None
            detail = (("committed", outcome.committed), ("abort_reason", reason))
            self.flight.record(coordinator, now, "txn.done", outcome.txn_id, detail)

    def proof_evaluated(
        self, txn_id: str, phase: str, proof: "ProofOfAuthorization", cost: float
    ) -> None:
        """One ``eval(f, t)`` — cached or not, it counts toward Table I.

        ``cost`` is the simulated span of the whole evaluation (OCSP round
        trip + CPU queueing + evaluation time), not just the fixed cost.
        """
        server, now = proof.server, proof.evaluated_at
        granted, version = proof.granted, proof.policy_version
        self.proofs.on_proof(server, txn_id)
        if self.live is not None:
            self.live.record_proof_eval(server, phase, cost, now)
        if self.flight is not None:
            detail = (("phase", phase), ("granted", granted), ("version", version))
            self.flight.record(server, now, "proof.eval", txn_id, detail)
        if self.tracer.enabled:
            items = (
                ("admin", proof.policy_id.admin),
                ("granted", granted),
                ("phase", phase),
                ("query_id", proof.query_id),
                ("server", server),
                ("txn_id", txn_id),
                ("version", version),
            )
            self.tracer.record(now, PROOF_EVAL, items)

    # -- facts: locks -----------------------------------------------------------

    def lock_granted(self, server: str, txn_id: str, key: str, mode: LockMode, now: float) -> None:
        """A lock (or a shared→exclusive upgrade) was granted."""
        if self.tracer.enabled:
            items = (("key", key), ("mode", mode.value), ("server", server), ("txn_id", txn_id))
            self.tracer.record(now, LOCK_GRANT, items)

    def lock_released(self, server: str, txn_id: str, key: str, now: float) -> None:
        """An orderly strict-2PL release (a crash teardown records none)."""
        if self.tracer.enabled:
            items = (("key", key), ("mode", None), ("server", server), ("txn_id", txn_id))
            self.tracer.record(now, LOCK_RELEASE, items)

    def lock_wait_resolved(self, server: str, waited: float, now: float) -> None:
        """A *queued* request was granted after ``waited`` (immediate grants never fire)."""
        if self.live is not None:
            self.live.record_lock_wait(server, waited, now)

    # -- facts: policy churn ----------------------------------------------------

    def policy_published(self, region: str, now: float) -> None:
        """A policy storm published one version in ``region``."""
        if self.live is not None:
            self.live.record_policy_publication(region, now)

    def stale_commit(self, now: float) -> None:
        """A transaction committed behind the master's version (see StaleCommitTracker)."""
        if self.live is not None:
            self.live.record_stale(now)

    # -- streaming ---------------------------------------------------------------

    def release_txn(self, txn_id: str) -> None:
        """Drop per-transaction attribution for one finished transaction.

        No-op unless ``streaming`` — the TM calls this unconditionally after
        building the outcome, so retained-mode runs keep the breakdowns for
        post-hoc inspection while streaming runs stay bounded.
        """
        if not self.streaming:
            return
        self.messages.by_txn.pop(txn_id, None)
        self.proofs.by_txn.pop(txn_id, None)


@dataclass(frozen=True)
class CounterSample:
    """One labeled counter value — the canonical enumeration unit.

    ``family`` is the logical metric name (``messages``, ``engine_work``,
    …); ``labels`` is a sorted tuple of ``(name, value)`` pairs.  Both
    :func:`repro.metrics.report.format_counters_report` and the OpenMetrics
    exposition (:mod:`repro.obs.openmetrics`) render from this one
    enumeration, so the two outputs can never disagree on counter names or
    values.
    """

    family: str
    labels: Tuple[Tuple[str, str], ...]
    value: float

    def label(self, name: str) -> str:
        for key, value in self.labels:
            if key == name:
                return value
        raise KeyError(name)


def counter_samples(metrics: "Metrics") -> List[CounterSample]:
    """Flatten a :class:`Metrics` bundle into labeled counter samples.

    Deterministic order: families in a fixed sequence, label values sorted.
    Derived values (hit rates, totals of labeled families) are *not*
    emitted — consumers compute them from the samples, keeping every
    counter name unique across the enumeration.
    """
    samples: List[CounterSample] = []
    for category in sorted(metrics.messages.by_category):
        samples.append(
            CounterSample(
                "messages",
                (("category", category),),
                float(metrics.messages.by_category[category]),
            )
        )
    for server in sorted(metrics.proofs.by_server):
        samples.append(
            CounterSample(
                "proof_evaluations",
                (("server", server),),
                float(metrics.proofs.by_server[server]),
            )
        )
    cache = metrics.proof_cache
    for event, value in (
        ("hit", cache.hits),
        ("miss", cache.misses),
        ("bypass", cache.bypasses),
        ("invalidation", cache.invalidations),
    ):
        samples.append(CounterSample("proof_cache_events", (("event", event),), float(value)))
    for name, value in sorted(metrics.engine.snapshot().items()):
        samples.append(CounterSample("engine_work", (("counter", name),), float(value)))
    region_pairs = sorted(metrics.regions.by_pair)
    for src_region, dst_region in region_pairs:
        samples.append(
            CounterSample(
                "region_messages",
                (("dst_region", dst_region), ("src_region", src_region)),
                float(metrics.regions.by_pair[(src_region, dst_region)]),
            )
        )
    for src_region, dst_region in region_pairs:
        samples.append(
            CounterSample(
                "region_bytes",
                (("dst_region", dst_region), ("src_region", src_region)),
                float(metrics.regions.bytes_by_pair[(src_region, dst_region)]),
            )
        )
    verification = metrics.verification
    samples.append(CounterSample("verification_runs", (), float(verification.runs)))
    samples.append(
        CounterSample("verification_events_checked", (), float(verification.events_checked))
    )
    samples.append(
        CounterSample(
            "verification_transactions_checked",
            (),
            float(verification.transactions_checked),
        )
    )
    for code in sorted(verification.violations_by_code):
        samples.append(
            CounterSample(
                "verification_violations",
                (("code", code),),
                float(verification.violations_by_code[code]),
            )
        )
    # Only nonzero fault events are emitted: fault-free runs (the default)
    # keep their report and exposition byte-identical to before the fault
    # layer existed.
    for event, value in sorted(metrics.faults.snapshot().items()):
        if value:
            samples.append(CounterSample("fault_events", (("event", event),), float(value)))
    return samples
