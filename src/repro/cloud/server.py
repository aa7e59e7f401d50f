"""Cloud servers: storage + locks + constraints + policies + WAL + handlers.

A :class:`CloudServer` is one of the paper's ``S`` servers.  It hosts a
subset of the data items, enforces the policies it currently knows (which
may be stale — replication is eventually consistent), participates in
2PC / 2PV / 2PVC, and can issue capability credentials ("access credentials
that act as capabilities", Section III-A).

All handlers run as simulation processes, so lock waits, proof-evaluation
time, OCSP round trips, and forced log writes all consume simulated time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.db.constraints import ConstraintSet
from repro.db.locks import LockManager, LockMode
from repro.db.recovery import analyze
from repro.db.storage import StorageEngine
from repro.db.wal import STREAMING_COMPACT_AT, LogRecordType, WriteAheadLog
from repro.errors import DeadlockError, NetworkError, PolicyError, RequestTimeout
from repro.metrics.counters import Metrics
from repro.obs.spans import KIND_CPU, KIND_PROOF, KIND_SERVER, ParentRef, Span
from repro.policy.credentials import CARegistry, CertificateAuthority, Credential
from repro.policy.ocsp import fetch_statuses
from repro.policy.policy import Operation, Policy, PolicyId
from repro.policy.proofcache import STREAMING_PROOF_CACHE_CAPACITY, ProofCache
from repro.policy.proofs import (
    LocalRevocationChecker,
    PrefetchedStatuses,
    ProofOfAuthorization,
    evaluate_proof,
)
from repro.policy.rules import Atom
from repro.policy.store import PolicyStore
from repro.sim.events import Event
from repro.sim.network import Message, Node
from repro.sim.resources import Resource
from repro.transactions.effects import force_log, request_with_retry
from repro.transactions.states import Decision, Vote
from repro.transactions.transaction import Query

#: Capability-predicate names, interned once per operation (hot path:
#: every capability issue used to rebuild the f-string).
_CAPABILITY_PREDICATES = {
    operation: sys.intern(f"{operation.value}_capability") for operation in Operation
}

#: DECISION_REQUEST retries a recovering participant sends before giving up
#: on resolving an in-doubt transaction (it stays in doubt; a later recovery
#: run retries from scratch).
RECOVERY_MAX_RETRIES = 3


@dataclass
class _ExecutedQuery:
    """A query this server executed for some in-flight transaction."""

    query: Query
    user: str
    credentials: Tuple[Credential, ...]
    admin: PolicyId
    latest_proof: Optional[ProofOfAuthorization] = None


@dataclass
class _TxnState:
    """Volatile per-transaction state on one participant."""

    txn_id: str
    coordinator: str
    queries: List[_ExecutedQuery] = field(default_factory=list)
    prepared: bool = False
    #: Reply payload of the first PREPARE_TO_COMMIT, replayed verbatim on a
    #: duplicate (coordinator retry after a lost reply) so the vote is not
    #: re-derived and PREPARED is not force-logged twice.
    vote_reply: Optional[Dict[str, Any]] = None


class CloudServer(Node):
    """One cloud server hosting data items and enforcing policies."""

    def __init__(
        self,
        name: str,
        config: CloudConfig,
        registry: CARegistry,
        metrics: Metrics,
        default_admin: str = "app",
        domain_of: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.registry = registry
        self.metrics = metrics
        # The access log exists for post-run isolation checks, which need a
        # retained trace anyway; untraced runs (streaming at scale) skip it
        # so storage memory stays bounded by live workspaces.
        self.storage = StorageEngine(name, record_accesses=metrics.tracer.enabled)
        self.constraints = ConstraintSet()
        self.policies = PolicyStore()
        self.wal = WriteAheadLog(
            name,
            compact_at=STREAMING_COMPACT_AT if metrics.streaming else None,
        )
        self.default_admin = default_admin
        #: item → administrative domain (defaults to ``default_admin``).
        self.domain_of: Dict[str, str] = dict(domain_of or {})
        self.locks: Optional[LockManager] = None  # created when registered
        self._cpu: Optional[Resource] = None  # created when registered
        self._txns: Dict[str, _TxnState] = {}
        #: This server's own credential-issuing identity (capabilities).
        self.authority = CertificateAuthority(f"{name}-authority")
        registry.add(self.authority)
        #: Version-aware proof-evaluation memo (None when disabled).  The
        #: invalidation hooks keep it consistent: policy installs drop the
        #: domain's entries, revocations drop entries using the credential.
        self.proof_cache: Optional[ProofCache] = None
        if config.enable_proof_cache:
            cache = self.proof_cache = ProofCache(
                stats=metrics.proof_cache,
                server=name,
                # Hits are outcome-neutral (see config), so bounding the
                # memo cannot change results — it only keeps memory O(1)
                # in the user population of a streaming run.
                capacity=STREAMING_PROOF_CACHE_CAPACITY if config.streaming_metrics else None,
            )
            self.policies.subscribe(cache.invalidate_policy)
            # The registry is shared and holds this server (its authority is
            # registered there): the listener captures the cache alone, or
            # registry -> listener -> server -> registry is a cycle.
            registry.subscribe_revocations(
                lambda record: cache.invalidate_credential(record.cred_id)
            )

    # Nodes get their env at registration time; the lock manager needs it.
    def _lock_manager(self) -> LockManager:
        if self.locks is None:
            assert self.env is not None, "server must be registered with a network"
            self.locks = LockManager(self.env, self.name, self.metrics)
        return self.locks

    def _cpu_resource(self) -> Optional[Resource]:
        """Lazily created compute-slot pool (None = unbounded)."""
        if self.config.server_concurrency is None:
            return None
        if self._cpu is None:
            assert self.env is not None, "server must be registered with a network"
            self._cpu = Resource(
                self.env, self.config.server_concurrency, name=f"{self.name}.cpu"
            )
        return self._cpu

    def _consume_cpu(
        self,
        duration: float,
        trace_id: Optional[str] = None,
        parent: ParentRef = None,
        name: str = "cpu",
    ) -> Generator[Event, Any, None]:
        """Spend ``duration`` of compute, holding one slot if bounded.

        Slots are held only for compute, never across lock waits or
        network round trips, so capacity cannot deadlock against 2PL.
        With a ``trace_id``/``parent`` the stretch — including any wait for
        a compute slot — is recorded as a ``cpu`` span.
        """
        spans = self.metrics.spans
        span = (
            spans.start(trace_id, name, KIND_CPU, self.name, self.env.now, parent=parent)
            if parent is not None and spans.enabled
            else None
        )
        cpu = self._cpu_resource()
        if cpu is None:
            yield self.env.timeout(duration)
            spans.finish(span, self.env.now)
            return
        yield cpu.acquire()
        try:
            yield self.env.timeout(duration)
        finally:
            cpu.release()
            spans.finish(span, self.env.now)

    # -- setup helpers -----------------------------------------------------------

    def host_items(self, values: Dict[str, Any], admin: Optional[str] = None) -> None:
        """Install items (with initial values) on this server."""
        self.storage.install_many(values)
        if admin is not None:
            for key in values:
                self.domain_of[key] = admin

    def admin_for(self, query: Query) -> PolicyId:
        """The administrative domain governing a query's items."""
        domains = {self.domain_of.get(item, self.default_admin) for item in query.items}
        if len(domains) != 1:
            raise PolicyError(
                f"query {query.query_id!r} spans administrative domains {sorted(domains)}"
            )
        return PolicyId(domains.pop())

    def issue_capability(
        self,
        user: str,
        item: str,
        operation: Operation,
        now: float,
        expires_at: float = float("inf"),
    ) -> Credential:
        """Issue an access credential acting as a capability.

        "Different cloud servers can also issue access credentials that act
        as capabilities allowing the user to continue submitting queries to
        other servers during the transaction lifetime" (Section III-A).
        """
        # Precomputed per operation: rebuilding the predicate f-string per
        # call defeats the interned-string identity fast path in rule lookup.
        predicate = _CAPABILITY_PREDICATES[operation]
        return self.authority.issue(user, Atom(predicate, (user, item)), now, expires_at)

    def _handler_span(self, message: Message, name: str, **attrs: Any) -> Optional[Span]:
        """Open a participant-side handler span under the coordinator's
        embedded span context; ``None`` when the message carries none (the
        trace is unsampled, or the sender was not instrumented)."""
        parent = message.get("span_ctx")
        if parent is None or not self.metrics.spans.enabled:
            return None
        return self.metrics.spans.start(
            message.get("txn_id"),
            name,
            KIND_SERVER,
            self.name,
            self.env.now,
            parent=parent,
            **attrs,
        )

    # -- message dispatch ------------------------------------------------------------

    def handle_message(self, message: Message) -> Optional[Generator[Event, Any, Any]]:
        if message.kind == msg.EXECUTE_QUERY:
            return self._handle_execute(message)
        if message.kind == msg.PREPARE_TO_VALIDATE:
            return self._handle_prepare_to_validate(message)
        if message.kind == msg.POLICY_UPDATE:
            return self._handle_policy_update(message)
        if message.kind == msg.PREPARE_TO_COMMIT:
            return self._handle_prepare_to_commit(message)
        if message.kind == msg.DECISION:
            return self._handle_decision(message)
        if message.kind == msg.POLICY_INSTALL:
            self.policies.apply(message["policy"])
            return None
        raise NotImplementedError(f"{self.name} cannot handle {message.kind!r}")

    # -- query execution ----------------------------------------------------------------

    def _handle_execute(self, message: Message) -> Generator[Event, Any, None]:
        txn_id: str = message["txn_id"]
        query: Query = message["query"]
        user: str = message["user"]
        credentials: Tuple[Credential, ...] = tuple(message["credentials"])
        evaluate: bool = message["evaluate_proof"]

        span = self._handler_span(message, "server.execute", query_id=query.query_id)
        try:
            state = self._txns.setdefault(txn_id, _TxnState(txn_id, coordinator=message.src))
            # Duplicate EXECUTE (coordinator retry after a lost reply):
            # replay the result from the workspace instead of re-applying
            # write deltas.  Reads happen under the still-held locks, so
            # the access log stays lock-covered.
            duplicate = next(
                (
                    executed
                    for executed in state.queries
                    if executed.query.query_id == query.query_id
                ),
                None,
            )
            if duplicate is not None:
                values = {item: self.storage.read(txn_id, item) for item in query.items}
                self._reply_result(message, duplicate, values, [])
                return
            # Coordinator's view of what this server already executed for
            # the transaction.  Anything missing means a crash wiped the
            # workspace (earlier writes included) and a retry silently
            # recreated partial state — refuse rather than resume.
            known = {executed.query.query_id for executed in state.queries}
            missing = [
                query_id
                for query_id in message.get("expected_queries", ())
                if query_id not in known
            ]
            if missing:
                self._deny(
                    message, "state-lost", f"prior queries lost in a crash: {', '.join(missing)}"
                )
                return
            locks = self._lock_manager()
            mode = (
                LockMode.EXCLUSIVE if query.operation is Operation.WRITE else LockMode.SHARED
            )
            for item in query.items:
                try:
                    yield locks.acquire(txn_id, item, mode, span=span)
                except DeadlockError as error:
                    if self.is_down:
                        # Crash teardown failed the wait; a dead server
                        # neither rolls back (already done) nor replies.
                        return
                    self._deny(message, "deadlock", str(error))
                    return

            yield from self._consume_cpu(
                self.config.query_execution_time,
                trace_id=txn_id,
                parent=span,
                name="cpu.query",
            )

            # A crash while this handler consumed CPU leaves it running on a
            # dead server; it must not touch storage or send anything.
            if self.is_down:
                return
            # A global abort may have arrived while this handler was waiting on
            # locks or executing; in that case the transaction's state is gone
            # and we must not recreate workspaces or locks for it.
            if self._txns.get(txn_id) is not state:
                self._deny(message, "aborted", "transaction aborted during execution")
                return

            values: Dict[str, Any] = {}
            if query.operation is Operation.READ:
                for item in query.items:
                    values[item] = self.storage.read(txn_id, item)
            else:
                for effect in query.effects:
                    current = self.storage.read(txn_id, effect.key)
                    updated = effect.apply(current)
                    self.storage.write(txn_id, effect.key, updated)
                    values[effect.key] = updated

            admin = self.admin_for(query)
            executed = _ExecutedQuery(query, user, credentials, admin)
            state.queries.append(executed)

            proof: Optional[ProofOfAuthorization] = None
            if evaluate:
                proof = yield from self._evaluate(
                    txn_id, executed, phase="execution", parent=span
                )
                if self.is_down:
                    return

            capabilities: List[Credential] = []
            if proof is not None and proof.granted and self.config.issue_capabilities:
                for item in query.items:
                    capabilities.append(
                        self.issue_capability(user, item, query.operation, self.env.now)
                    )

            self._reply_result(message, executed, values, capabilities)
        finally:
            self.metrics.spans.finish(span, self.env.now)

    def _reply_result(
        self,
        message: Message,
        executed: _ExecutedQuery,
        values: Dict[str, Any],
        capabilities: List[Credential],
    ) -> None:
        """Answer an EXECUTE_QUERY: values, the latest proof, the policy in force."""
        proof = executed.latest_proof
        policy = self.policies.current(executed.admin)
        self.reply(
            message,
            msg.QUERY_RESULT,
            msg.CAT_QUERY,
            txn_id=message["txn_id"],
            query_id=executed.query.query_id,
            values=values,
            proof=proof,
            granted=(proof.granted if proof is not None else None),
            admin=executed.admin,
            version=policy.version,
            policy=policy,
            capabilities=capabilities,
        )

    def _deny(self, message: Message, reason: str, detail: str) -> None:
        """Refuse an EXECUTE_QUERY: roll the transaction back here, say why."""
        txn_id = message["txn_id"]
        self._rollback_local(txn_id)
        self.reply(
            message,
            msg.QUERY_DENIED,
            msg.CAT_QUERY,
            txn_id=txn_id,
            query_id=message["query"].query_id,
            reason=reason,
            detail=detail,
        )

    def _evaluate(
        self,
        txn_id: str,
        executed: _ExecutedQuery,
        phase: str,
        policy: Optional[Policy] = None,
        parent: ParentRef = None,
    ) -> Generator[Event, Any, ProofOfAuthorization]:
        """Evaluate one proof of authorization.

        Uses ``policy`` when given (a snapshot pinned by the caller) and the
        latest locally installed policy otherwise.  Routes through the
        proof cache when enabled; a cached hit is semantically identical
        (same verdict, same simulated cost) but skips the host-side
        signature and derivation work.  ``parent`` roots the ``proof.eval``
        span, which covers the OCSP round trip (if any) and the simulated
        evaluation time — the whole stretch attributes to "proof" on the
        critical path.
        """
        eval_started = self.env.now
        spans = self.metrics.spans
        span = (
            spans.start(
                txn_id,
                "proof.eval",
                KIND_PROOF,
                self.name,
                self.env.now,
                parent=parent,
                query_id=executed.query.query_id,
                phase=phase,
            )
            if parent is not None
            else None
        )
        if self.config.use_online_ocsp:
            statuses = yield from fetch_statuses(
                self, self.config.ocsp_responder, executed.credentials, self.env.now
            )
            checker: Any = PrefetchedStatuses(statuses)
        else:
            checker = LocalRevocationChecker(self.registry)
        yield from self._consume_cpu(self.config.proof_evaluation_time)
        if policy is None:
            policy = self.policies.current(executed.admin)
        evaluator = (
            self.proof_cache.evaluate if self.proof_cache is not None else evaluate_proof
        )
        proof = evaluator(
            policy=policy,
            query_id=executed.query.query_id,
            user=executed.user,
            operation=executed.query.operation,
            items=executed.query.items,
            credentials=executed.credentials,
            server=self.name,
            now=self.env.now,
            registry=self.registry,
            revocation=checker,
            counters=self.metrics.engine,
            obs_span=span,
        )
        executed.latest_proof = proof
        self.metrics.proof_evaluated(txn_id, phase, proof, self.env.now - eval_started)
        spans.finish(span, self.env.now, granted=proof.granted, version=proof.policy_version)
        return proof

    def _validation_report(
        self, txn_id: str, parent: ParentRef = None
    ) -> Generator[Event, Any, Dict[str, Any]]:
        """(Re-)evaluate all this transaction's proofs; build the 2PV reply.

        The policy per administrative domain is *pinned once* at the start
        of the report, so every proof in one reply used the same version —
        otherwise a replication delivery landing between two evaluations
        could make the reply's version claim inconsistent with the proofs
        it vouches for (and let a φ-inconsistent view commit).
        """
        state = self._txns.get(txn_id)
        if state is None:
            # Asked to vouch for a transaction this server has no state
            # for: a crash wiped the workspace (writes and locks included),
            # so a TRUE report would let a partially-lost transaction
            # commit.  Report FALSE and let the coordinator abort.
            return {"truth": False, "versions": {}, "policies": {}, "proofs": []}
        proofs: List[ProofOfAuthorization] = []
        snapshot: Dict[PolicyId, Policy] = {}
        for executed in state.queries:
            if executed.admin not in snapshot:
                snapshot[executed.admin] = self.policies.current(executed.admin)
        for executed in state.queries:
            proof = yield from self._evaluate(
                txn_id, executed, phase="commit", policy=snapshot[executed.admin], parent=parent
            )
            proofs.append(proof)
        truth = all(proof.granted for proof in proofs)
        versions: Dict[PolicyId, int] = {
            admin: policy.version for admin, policy in snapshot.items()
        }
        return {
            "truth": truth,
            "versions": versions,
            "policies": dict(snapshot),
            "proofs": proofs,
        }

    # -- 2PV handlers ---------------------------------------------------------------------

    def _handle_prepare_to_validate(self, message: Message) -> Generator[Event, Any, None]:
        txn_id = message["txn_id"]
        span = self._handler_span(message, "server.validate")
        report: Optional[Dict[str, Any]] = None
        try:
            report = yield from self._validation_report(txn_id, parent=span)
            if self.is_down:
                return
            self.reply(message, msg.VALIDATE_REPLY, msg.CAT_VOTE, txn_id=txn_id, **report)
        finally:
            self.metrics.spans.finish(
                span, self.env.now, truth=report["truth"] if report is not None else None
            )

    def _handle_policy_update(self, message: Message) -> Generator[Event, Any, None]:
        """Install pushed policies, re-evaluate, and report back (Alg. 1 step 10)."""
        txn_id = message["txn_id"]
        span = self._handler_span(message, "server.update")
        try:
            for policy in message["policies"]:
                self.policies.apply(policy)
            report = yield from self._validation_report(txn_id, parent=span)
            if self.is_down:
                return
            self.reply(message, msg.POLICY_UPDATED, msg.CAT_UPDATE, txn_id=txn_id, **report)
        finally:
            self.metrics.spans.finish(span, self.env.now)

    # -- 2PVC voting ---------------------------------------------------------------------

    def _handle_prepare_to_commit(self, message: Message) -> Generator[Event, Any, None]:
        txn_id = message["txn_id"]
        validate: bool = message["validate"]
        state = self._txns.get(txn_id)

        span = self._handler_span(message, "server.vote", validate=validate)
        try:
            # Duplicate PREPARE (coordinator retry after a lost reply):
            # replay the recorded reply instead of re-deriving the vote and
            # force-logging PREPARED a second time.
            if state is not None and state.vote_reply is not None:
                self.reply(message, msg.VOTE_REPLY, msg.CAT_VOTE, **state.vote_reply)
                return
            if state is None and self.wal.decision_for(txn_id) is not None:
                # Late duplicate PREPARE for a transaction already resolved
                # here: the decision is logged, a second vote would be a
                # protocol-order violation.  Stay silent; the coordinator
                # has long since moved on.
                return
            yield from self._consume_cpu(
                self.config.constraint_check_time,
                trace_id=txn_id,
                parent=span,
                name="cpu.constraints",
            )
            if self.is_down:
                return
            reader = self.storage.effective_reader(txn_id)
            touched = (
                set().union(*(set(executed.query.items) for executed in state.queries))
                if state is not None and state.queries
                else set()
            )
            integrity_ok, violated = self.constraints.check(reader, touched)
            vote = Vote.YES if integrity_ok else Vote.NO
            if state is None:
                # A crash wiped this transaction's workspace and locks: the
                # writes it executed here are gone, so a YES vote would
                # commit a partial transaction (and silently lose updates).
                vote = Vote.NO
                violated = ("execution-state-lost",)

            if validate:
                report = yield from self._validation_report(txn_id, parent=span)
            else:
                report = {"truth": True, "versions": {}, "policies": {}, "proofs": []}
            if self.is_down:
                return

            # "a participant must forcibly log the set of (vi, pi) tuples along
            # with its vote and truth value" (Section V-C).
            durable = yield from force_log(
                self,
                LogRecordType.PREPARED,
                txn_id,
                span,
                lambda: dict(
                    vote=vote.value,
                    truth=report["truth"],
                    versions={pid.admin: ver for pid, ver in report["versions"].items()},
                    writes=dict(self.storage.workspace(txn_id).writes) if state is not None else {},
                    coordinator=message.src,
                ),
            )
            if not durable:
                # Crashed before the force hit disk: no PREPARED record, no
                # vote — presumed abort resolves the transaction.
                return
            reply_payload = {
                "txn_id": txn_id,
                "vote": vote,
                "violated": violated,
                **report,
            }
            if state is not None:
                state.prepared = True
                state.vote_reply = reply_payload

            self.reply(message, msg.VOTE_REPLY, msg.CAT_VOTE, **reply_payload)
        finally:
            self.metrics.spans.finish(span, self.env.now)

    # -- decision phase ------------------------------------------------------------------

    def _handle_decision(self, message: Message) -> Generator[Event, Any, None]:
        txn_id = message["txn_id"]
        decision: Decision = message["decision"]
        force: bool = message["force"]
        ack: bool = message["ack"]

        # Un-acknowledged decisions are fire-and-forget: the coordinator's
        # phase (and root) span may close before this handler runs, so the
        # span is marked detached and exempted from parent containment.
        span = self._handler_span(
            message,
            "server.decision",
            decision=decision.value,
            detached=not ack,
        )
        try:
            # Duplicate DECISION (coordinator retry after a lost ack): the
            # transaction is already resolved and applied — re-ack without
            # re-logging or re-applying storage effects.
            if self._txns.get(txn_id) is None and self.wal.decision_for(txn_id) is not None:
                if ack:
                    self.reply(message, msg.DECISION_ACK, msg.CAT_DECISION, txn_id=txn_id)
                return
            record_type = LogRecordType.for_decision(decision)
            if force:
                if not (yield from force_log(self, record_type, txn_id, span)):
                    return  # crashed before the force: decision not durable here
            else:
                self.wal.append(record_type, txn_id, self.env.now)

            if decision is Decision.COMMIT:
                self.storage.apply(txn_id, self.env.now)
            else:
                self.storage.discard(txn_id)
            self._lock_manager().release_all(txn_id)
            self._txns.pop(txn_id, None)

            if ack:
                self.reply(message, msg.DECISION_ACK, msg.CAT_DECISION, txn_id=txn_id)
        finally:
            self.metrics.spans.finish(span, self.env.now)

    def _rollback_local(self, txn_id: str) -> None:
        """Unilateral local rollback (deadlock victim before voting)."""
        self.storage.discard(txn_id)
        self._lock_manager().release_all(txn_id)
        self._txns.pop(txn_id, None)

    # -- crash & recovery -------------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state vanishes: workspaces, lock table, txn bookkeeping.

        The lock table is torn down in place (:meth:`LockManager.on_crash`)
        rather than replaced: replacing it orphaned every queued waiter
        event — handler processes blocked on ``acquire`` stayed parked
        forever and their transactions' locks on *other* servers leaked
        until timeout.  Teardown fails those waits so the handlers unwind
        (and, being down, go silent).
        """
        for txn_id in list(self.storage.active_transactions()):
            self.storage.discard(txn_id)
        self._txns.clear()
        if self.locks is not None:
            waits_cancelled, locks_dropped = self.locks.on_crash()
            self.metrics.faults.lock_waits_cancelled += waits_cancelled
            self.metrics.faults.locks_dropped_on_crash += locks_dropped

    def on_recover(self) -> None:
        """Replay the WAL: redo logged commits, resolve in-doubt transactions."""
        plan = analyze(self.wal)
        for txn_id in plan.redo_commits:
            self._redo_from_log(txn_id)
            self.wal.append(LogRecordType.END, txn_id, self.env.now)
        for txn_id in plan.in_doubt:
            prepared = self._prepared_record(txn_id)
            coordinator = prepared.get("coordinator") if prepared else None
            if coordinator:
                self.env.process(
                    self._resolve_in_doubt(txn_id, coordinator),
                    name=f"{self.name}.resolve[{txn_id}]",
                )

    def _prepared_record(self, txn_id: str):
        for record in reversed(self.wal.records_for(txn_id)):
            if record.record_type is LogRecordType.PREPARED:
                return record
        return None

    def _redo_from_log(self, txn_id: str) -> None:
        """Reapply a committed transaction's writes from its prepared record."""
        prepared = self._prepared_record(txn_id)
        if prepared is None:
            return
        for key, value in (prepared.get("writes") or {}).items():
            self.storage.install(key, value)

    def _resolve_in_doubt(self, txn_id: str, coordinator: str) -> Generator[Event, Any, None]:
        """Termination protocol: ask the coordinator how the txn ended.

        The DECISION_REQUEST is retried with exponential backoff up to
        :data:`RECOVERY_MAX_RETRIES` times — under a lossy network a
        single unanswered probe used to kill this process (and leave the
        participant in doubt, its locks and workspace pinned) forever.
        """
        unreachable = (RequestTimeout, NetworkError)
        try:
            reply = yield from request_with_retry(
                self,
                RECOVERY_MAX_RETRIES,
                unreachable,
                coordinator,
                msg.DECISION_REQUEST,
                msg.CAT_RECOVERY,
                timeout=self.config.request_timeout,
                txn_id=txn_id,
            )
        except unreachable:
            self.metrics.faults.in_doubt_unresolved += 1
            return
        if self.is_down:
            return  # crashed again while waiting; the next recovery retries
        decision: Decision = reply["decision"]
        if not (yield from force_log(self, LogRecordType.for_decision(decision), txn_id)):
            return
        if decision is Decision.COMMIT:
            self._redo_from_log(txn_id)
        self.wal.append(LogRecordType.END, txn_id, self.env.now)
        self.metrics.faults.in_doubt_resolved += 1
