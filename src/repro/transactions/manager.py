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
from repro.cloud.master import MASTER_NAME
from repro.core.approaches import ProofApproach
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.core.twopvc import broadcast_decision
from repro.db.items import ItemCatalog
from repro.db.wal import LogRecordType, WriteAheadLog, forgets_finished
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
            forgets=forgets_finished(metrics.tracer.enabled, config.rpc_max_retries)
        )
        #: Finished outcomes, the checker's transaction index: kept only when
        #: the run is traced (``submit``'s process resolves to each outcome).
        self.outcomes: List[TransactionOutcome] = []
        self.active: Dict[str, TxnContext] = {}
        #: Finished contexts, for tests and post-hoc audits: kept, like
        #: ``outcomes``, only when the run is traced, or for a reader that
        #: asks and pops each one it reads (the stale-commit tracker).
        self.keeps_finished = metrics.tracer.enabled
        self.finished: Dict[str, TxnContext] = {}

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        txn: Transaction,
        approach: ProofApproach,
        consistency: ConsistencyLevel = ConsistencyLevel.VIEW,
    ) -> Process:
        """Launch a transaction; returns the process (resolves to outcome)."""
        return self.env.process(self._run(txn, approach, consistency))

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
            )
        )

    def fetch_master_versions(
        self, ctx: TxnContext, admins: Optional[Tuple[PolicyId, ...]] = None
    ) -> Generator[Event, Any, Dict[PolicyId, int]]:
        """One master-version retrieval (counted as a single Table I message)."""
        reply = yield self.rpc_event(
            MASTER_NAME,
            msg.MASTER_VERSION_QUERY,
            msg.CAT_MASTER,
            timeout=self.config.request_timeout,
            span=ctx.phase_span or ctx.root_span,
            txn_id=ctx.txn_id,
            admins=admins,
        )
        versions: Dict[PolicyId, int] = dict(reply["versions"])
        ctx.record_master_versions(versions)
        for policy in reply["policies"].values():
            ctx.learn_policy(policy)
        return versions

    # -- transaction lifecycle -------------------------------------------------------

    def _run(
        self, txn: Transaction, approach: ProofApproach, consistency: ConsistencyLevel
    ) -> Generator[Event, Any, TransactionOutcome]:
        ctx = TxnContext(txn, consistency, approach.name, self.name, started_at=self.env.now)
        self.active[txn.txn_id] = ctx
        metrics = self.metrics
        spans = metrics.spans
        metrics.txn_started(self.name, txn.txn_id, approach.name, consistency.value, self.env.now)
        if spans.enabled:
            ctx.root_span = spans.start(
                txn.txn_id, "txn", KIND_TXN, self.name, self.env.now,
                approach=approach.name, consistency=consistency.value,
            )
            ctx.phase_span = spans.start(
                txn.txn_id, PHASE_EXECUTE, KIND_PHASE, self.name, self.env.now, parent=ctx.root_span
            )

        decision = Decision.ABORT
        try:
            for query in txn.queries:
                server = self._route(query)
                yield from approach.before_query(self, ctx, query, server)
                reply = yield self._send_query(  # waited for in this frame, not a sub-generator's
                    ctx, query, server, approach.evaluate_during_execution
                )
                self._take_reply(ctx, query, server, reply)
                yield from approach.on_query_result(self, ctx, query, server, reply)
                del reply  # not kept across the next wait
            ctx.ready_at = self.env.now  # ω(T): ready to commit
            metrics.txn_ready(txn.txn_id, self.env.now)
            spans.finish(ctx.phase_span, self.env.now)
            ctx.phase_span = None
            ctx.status = TxnStatus.VALIDATING
            result = yield from approach.at_commit(self, ctx)
            ctx.voting_rounds += result.rounds
            ctx.commit_rounds = result.rounds
            ctx.abort_reason = result.abort_reason
            decision = result.decision
        except (TransactionAborted, NetworkError) as error:  # RequestTimeout is a NetworkError
            ctx.abort_reason = getattr(error, "reason", AbortReason.PARTICIPANT_UNREACHABLE)
            if ctx.ready_at is None:
                ctx.ready_at = self.env.now
            yield from self._abort_everywhere(ctx)

        ctx.decision = decision
        ctx.status = TxnStatus.COMMITTED if decision is Decision.COMMIT else TxnStatus.ABORTED
        ctx.finished_at = self.env.now
        # Abort paths can leave the execute phase open; close it before the root.
        spans.finish(ctx.phase_span, self.env.now)
        ctx.phase_span = None
        spans.finish(
            ctx.root_span, self.env.now, committed=(decision is Decision.COMMIT),
            abort_reason=ctx.abort_reason.value if ctx.abort_reason else None,
        )
        outcome = self._build_outcome(ctx)
        metrics.txn_finished(self.name, outcome)
        if metrics.tracer.enabled:
            self.outcomes.append(outcome)
        if self.keeps_finished:
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

    def _send_query(self, ctx: TxnContext, query: Query, server: str, evaluate: bool) -> Event:
        """Ask ``server`` to execute ``query``: the event its reply arrives on."""
        # Queries this server has already executed for the transaction: the
        # server cross-checks the list so a participant that crashed and
        # lost its workspace cannot silently resume with partial state.
        prior = tuple(q.query_id for q in ctx.queries_by_server.get(server, ()))
        # Record the participant *before* dispatch so that an abort after a
        # request timeout also reaches servers that never replied (they may
        # hold locks or queued waits for this transaction).
        ctx.note_participant(server, query)
        return self.rpc_event(
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

    def _take_reply(self, ctx: TxnContext, query: Query, server: str, reply: Message) -> None:
        """Fold a query's reply into ``ctx``; a denial aborts the transaction."""
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
        ctx.record_values(query.query_id, reply["values"])
        ctx.record_version(reply["admin"], server, reply["version"])
        ctx.learn_policy(reply["policy"])
        proof = reply["proof"]
        if proof is not None:
            ctx.record_proof(proof)
        for capability in reply.get("capabilities", ()):
            ctx.add_capability(capability)

    def _abort_everywhere(self, ctx: TxnContext) -> Generator[Event, Any, None]:
        """Roll back at every participant contacted so far."""
        participants = ctx.active_participants()
        if not participants:
            self.wal.append(LogRecordType.ABORT, ctx.txn_id, self.env.now)
            self.wal.forget(ctx.txn_id)
            return
        try:
            yield from broadcast_decision(self, ctx, Decision.ABORT, participants)
        except (RequestTimeout, NetworkError):
            pass  # a dead participant resolves via recovery; abort stands

    def _build_outcome(self, ctx: TxnContext) -> TransactionOutcome:
        protocol_messages, proof_evaluations = self.metrics.close_txn(ctx.txn_id)
        return TransactionOutcome(
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
            protocol_messages=protocol_messages,
            proof_evaluations=proof_evaluations,
            commit_rounds=ctx.commit_rounds,
        )
