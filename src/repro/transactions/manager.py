"""The Transaction Manager (TM).

"Transactions submitted to the system are first forwarded to a Transaction
Manager that distributes the queries to the involved servers and
coordinates their execution" (Section III-A).  The TM:

* routes each query to the server hosting its items (sequential execution,
  per the paper's model);
* invokes the configured proof-of-authorization approach's hooks around
  each query;
* coordinates the commit-time protocol (2PC / 2PV / 2PVC) and the decision
  phase, with coordinator-side write-ahead logging;
* answers participants' recovery inquiries for in-doubt transactions;
* records a :class:`~repro.metrics.stats.TransactionOutcome` per finished
  transaction.

Multiple TMs may be registered for load balancing; each transaction is
handled by exactly one TM.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.approaches import ProofApproach
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopvc import broadcast_decision
from repro.db.items import ItemCatalog
from repro.db.wal import STREAMING_COMPACT_AT, LogRecordType, WriteAheadLog
from repro.errors import (
    AbortReason,
    NetworkError,
    RequestTimeout,
    StorageError,
    TransactionAborted,
)
from repro.metrics.counters import Metrics
from repro.metrics.stats import TransactionOutcome
from repro.obs.spans import KIND_PHASE, KIND_TXN, PHASE_EXECUTE
from repro.policy.policy import PolicyId
from repro.sim.events import Event
from repro.sim.network import Message, Node
from repro.sim.process import Process
from repro.transactions.effects import request_with_retry
from repro.transactions.states import Decision, TxnStatus
from repro.transactions.transaction import Query, Transaction


class TransactionManager(Node):
    """Coordinator node driving transactions end to end."""

    def __init__(
        self,
        name: str,
        config: CloudConfig,
        catalog: ItemCatalog,
        metrics: Metrics,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.catalog = catalog
        self.metrics = metrics
        self.wal = WriteAheadLog(
            name,
            compact_at=STREAMING_COMPACT_AT if metrics.streaming else None,
        )
        #: Finished outcomes, kept for inspection — empty when the metrics
        #: bundle is streaming (outcomes then flow only through callbacks).
        self.outcomes: List[TransactionOutcome] = []
        self.active: Dict[str, TxnContext] = {}
        #: Finished contexts kept for inspection by tests and benches.
        #: Streaming runs must drain this map as transactions finish (the
        #: open-loop runner and the stale-commit tracker both pop it).
        self.finished: Dict[str, TxnContext] = {}

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        txn: Transaction,
        approach: ProofApproach,
        consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
    ) -> Process:
        """Launch a transaction; returns the process (resolves to outcome)."""
        return self.env.process(
            self._run(txn, approach, consistency),
            name=f"{self.name}.txn[{txn.txn_id}]",
        )

    # -- message handling (recovery service) -------------------------------------

    def handle_message(self, message: Message) -> None:
        if message.kind == msg.DECISION_REQUEST:
            txn_id = message["txn_id"]
            record = self.wal.decision_for(txn_id)
            decision = (
                Decision.COMMIT
                if record is not None and record.record_type is LogRecordType.COMMIT
                else Decision.ABORT  # no decision record ⇒ presumed abort
            )
            self.reply(
                message, msg.DECISION_REPLY, msg.CAT_RECOVERY, txn_id=txn_id, decision=decision
            )
            return
        raise NotImplementedError(f"TM cannot handle {message.kind!r}")

    # -- coordinator primitives used by the protocol generators ----------------------

    def rpc_event(
        self,
        dst: str,
        kind: str,
        category: str,
        timeout: Optional[float] = None,
        span: Any = None,
        **payload: Any,
    ) -> Event:
        """A coordinator RPC with optional bounded retry-with-backoff.

        With ``config.rpc_max_retries == 0`` (the default) this *is*
        ``self.request`` — the raw waiter event, no wrapper process — so
        baseline traces stay bit-identical.  With retries enabled, a process
        runs :func:`~repro.transactions.effects.request_with_retry` and fails
        with the final :class:`RequestTimeout` only once the budget is spent.
        """
        retries = self.config.rpc_max_retries
        if retries <= 0:
            return self.request(dst, kind, category, timeout=timeout, span=span, **payload)
        return self.env.process(
            request_with_retry(
                self, retries, RequestTimeout, dst, kind, category, timeout, span, **payload
            ),
            name=f"{self.name}.rpc[{kind}->{dst}]",
        )

    def fetch_master_versions(
        self, ctx: TxnContext, admins: Optional[Tuple[PolicyId, ...]] = None
    ) -> Generator[Event, Any, Dict[PolicyId, int]]:
        """One master-version retrieval (counted as a single Table I message)."""
        reply = yield self.rpc_event(
            self.config.master_name,
            msg.MASTER_VERSION_QUERY,
            msg.CAT_MASTER,
            timeout=self.config.request_timeout,
            span=ctx.phase_span or ctx.root_span,
            txn_id=ctx.txn_id,
            admins=admins,
        )
        versions: Dict[PolicyId, int] = dict(reply["versions"])
        ctx.master_versions.update(versions)
        for policy in reply["policies"].values():
            ctx.learn_policy(policy)
        return versions

    # -- transaction lifecycle -------------------------------------------------------

    def _run(
        self, txn: Transaction, approach: ProofApproach, consistency: ConsistencyLevel
    ) -> Generator[Event, Any, TransactionOutcome]:
        ctx = TxnContext(
            txn=txn,
            consistency=consistency,
            approach_name=approach.name,
            coordinator=self.name,
            started_at=self.env.now,
        )
        self.active[txn.txn_id] = ctx
        spans = self.metrics.spans
        self.metrics.txn_started(
            self.name, txn.txn_id, approach.name, consistency.value, self.env.now
        )
        if spans.enabled:
            ctx.root_span = spans.start(
                txn.txn_id,
                "txn",
                KIND_TXN,
                self.name,
                self.env.now,
                approach=approach.name,
                consistency=consistency.value,
            )
            ctx.phase_span = spans.start(
                txn.txn_id,
                PHASE_EXECUTE,
                KIND_PHASE,
                self.name,
                self.env.now,
                parent=ctx.root_span,
            )

        decision = Decision.ABORT
        try:
            for query in txn.queries:
                server = self._route(query)
                yield from approach.before_query(self, ctx, query, server)
                reply = yield from self._execute_query(
                    ctx, query, server, approach.evaluate_during_execution
                )
                yield from approach.on_query_result(self, ctx, query, server, reply)
            ctx.ready_at = self.env.now  # ω(T): ready to commit
            self.metrics.txn_ready(txn.txn_id, self.env.now)
            spans.finish(ctx.phase_span, self.env.now)
            ctx.phase_span = None
            ctx.status = TxnStatus.VALIDATING
            result = yield from approach.at_commit(self, ctx)
            ctx.voting_rounds += result.rounds
            ctx.commit_rounds = result.rounds
            ctx.abort_reason = result.abort_reason
            decision = result.decision
        except TransactionAborted as aborted:
            ctx.abort_reason = aborted.reason
            if ctx.ready_at is None:
                ctx.ready_at = self.env.now
            yield from self._abort_everywhere(ctx)
        except (RequestTimeout, NetworkError) as error:
            ctx.abort_reason = AbortReason.PARTICIPANT_UNREACHABLE
            if ctx.ready_at is None:
                ctx.ready_at = self.env.now
            ctx.status = TxnStatus.ABORTED
            yield from self._abort_everywhere(ctx)

        ctx.decision = decision
        ctx.status = (
            TxnStatus.COMMITTED if decision is Decision.COMMIT else TxnStatus.ABORTED
        )
        ctx.finished_at = self.env.now
        # Abort paths can leave the execute phase open; close it before the root.
        spans.finish(ctx.phase_span, self.env.now)
        ctx.phase_span = None
        spans.finish(
            ctx.root_span,
            self.env.now,
            committed=(decision is Decision.COMMIT),
            abort_reason=ctx.abort_reason.value if ctx.abort_reason else None,
        )
        outcome = self._build_outcome(ctx)
        self.metrics.txn_finished(self.name, outcome)
        if not self.metrics.streaming:
            self.outcomes.append(outcome)
        self.finished[txn.txn_id] = ctx
        self.active.pop(txn.txn_id, None)
        return outcome

    def _route(self, query: Query) -> str:
        """The single server hosting every item of ``m(q)``."""
        servers = {self.catalog.server_for(item) for item in query.items}
        if len(servers) != 1:
            raise StorageError(
                f"query {query.query_id!r} touches items on several servers: {sorted(servers)}"
            )
        return servers.pop()

    def _execute_query(
        self, ctx: TxnContext, query: Query, server: str, evaluate: bool
    ) -> Generator[Event, Any, Message]:
        # Queries this server has already executed for the transaction: the
        # server cross-checks the list so a participant that crashed and
        # lost its workspace cannot silently resume with partial state.
        prior = tuple(q.query_id for q in ctx.queries_by_server.get(server, ()))
        # Record the participant *before* dispatch so that an abort after a
        # request timeout also reaches servers that never replied (they may
        # hold locks or queued waits for this transaction).
        ctx.note_participant(server, query)
        try:
            reply = yield self.rpc_event(
                server,
                msg.EXECUTE_QUERY,
                msg.CAT_QUERY,
                timeout=self.config.request_timeout,
                span=ctx.phase_span or ctx.root_span,
                txn_id=ctx.txn_id,
                query=query,
                user=ctx.txn.user,
                credentials=ctx.all_credentials(),
                evaluate_proof=evaluate,
                expected_queries=prior,
            )
        except RequestTimeout:
            raise TransactionAborted(
                AbortReason.PARTICIPANT_UNREACHABLE, f"query {query.query_id} to {server}"
            ) from None
        if reply.kind == msg.QUERY_DENIED:
            if reply["reason"] == "deadlock":
                reason = AbortReason.DEADLOCK
            elif reply["reason"] == "state-lost":
                # The participant crashed and lost this transaction's
                # earlier queries; nothing it holds can be trusted.
                reason = AbortReason.PARTICIPANT_UNREACHABLE
            else:
                reason = AbortReason.USER_ABORT
            raise TransactionAborted(reason, reply.get("detail", ""))

        ctx.executed_queries += 1
        ctx.values[query.query_id] = dict(reply["values"])
        ctx.record_version(reply["admin"], server, reply["version"])
        ctx.learn_policy(reply["policy"])
        proof = reply["proof"]
        if proof is not None:
            ctx.record_proof(proof)
        for capability in reply.get("capabilities", ()):
            ctx.extra_credentials.append(capability)
        return reply

    def _abort_everywhere(self, ctx: TxnContext) -> Generator[Event, Any, None]:
        """Roll back at every participant contacted so far."""
        participants = ctx.active_participants()
        if not participants:
            self.wal.append(LogRecordType.ABORT, ctx.txn_id, self.env.now)
            return
        try:
            yield from broadcast_decision(self, ctx, Decision.ABORT, participants)
        except (RequestTimeout, NetworkError):
            pass  # a dead participant resolves via recovery; abort stands

    def _build_outcome(self, ctx: TxnContext) -> TransactionOutcome:
        outcome = TransactionOutcome(
            txn_id=ctx.txn_id,
            approach=ctx.approach_name,
            consistency=ctx.consistency.value,
            committed=(ctx.decision is Decision.COMMIT),
            abort_reason=ctx.abort_reason,
            started_at=ctx.started_at,
            execution_done_at=ctx.ready_at if ctx.ready_at is not None else ctx.started_at,
            finished_at=ctx.finished_at if ctx.finished_at is not None else self.env.now,
            queries_total=ctx.txn.size,
            queries_executed=ctx.executed_queries,
            participants=len(ctx.active_participants()),
            voting_rounds=ctx.voting_rounds,
            protocol_messages=self.metrics.messages.protocol_for_txn(ctx.txn_id),
            proof_evaluations=self.metrics.proofs.for_txn(ctx.txn_id),
            commit_rounds=ctx.commit_rounds,
        )
        # The per-txn counts are captured in the outcome above; in streaming
        # mode the attribution maps can now forget this transaction.
        self.metrics.release_txn(ctx.txn_id)
        return outcome
