"""Online OCSP mode: servers check revocation over the network.

The paper assumes "an online method of verifying" credential status
(RFC 2560).  With ``use_online_ocsp=True`` every proof evaluation is
preceded by a batched status fetch from the responder node; these tests
verify the semantics match the local oracle and that the traffic stays out
of the protocol accounting.
"""

import pytest

from repro.cloud.config import CloudConfig
from repro.cloud.messages import CAT_OCSP
from repro.core.consistency import ConsistencyLevel
from repro.errors import AbortReason
from repro.sim.network import FixedLatency
from repro.transactions.transaction import Query, Transaction
from repro.workloads.testbed import build_cluster
from repro.workloads.updates import revoke_at

VIEW = ConsistencyLevel.VIEW


def make_cluster(seed=81):
    config = CloudConfig(latency=FixedLatency(1.0), use_online_ocsp=True)
    return build_cluster(n_servers=2, seed=seed, config=config)


def two_reads(credential, txn_id="t-ocsp"):
    return Transaction(
        txn_id,
        "alice",
        queries=(
            Query.read(f"{txn_id}-q1", ["s1/x1"]),
            Query.read(f"{txn_id}-q2", ["s2/x1"]),
        ),
        credentials=(credential,),
    )


class TestOnlineChecking:
    def test_valid_credentials_commit(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        outcome = cluster.run_transaction(two_reads(credential), "punctual", VIEW)
        assert outcome.committed

    def test_ocsp_traffic_flows_and_is_not_protocol(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        outcome = cluster.run_transaction(two_reads(credential), "punctual", VIEW)
        ocsp_messages = cluster.metrics.messages.by_category[CAT_OCSP]
        assert ocsp_messages > 0
        # Protocol counts unchanged by OCSP mode: still 2n vote + 2n decision.
        assert outcome.protocol_messages == 8

    def test_revocation_detected_through_responder(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        revoke_at(cluster, credential.issuer, credential.cred_id, at_time=0.5)
        outcome = cluster.run_transaction(two_reads(credential), "punctual", VIEW)
        assert not outcome.committed
        assert outcome.abort_reason is AbortReason.PROOF_FAILED

    def test_mid_transaction_revocation_caught_at_commit(self):
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        # After execution finishes (t = 6.0) but before the commit-time
        # status fetch (~t = 7.0).
        revoke_at(cluster, credential.issuer, credential.cred_id, at_time=6.2)
        outcome = cluster.run_transaction(two_reads(credential), "deferred", VIEW)
        assert not outcome.committed

    def test_ocsp_has_a_fetch_to_use_staleness_window(self):
        """A revocation landing between the status fetch and the proof
        evaluation is invisible to that evaluation — the inherent staleness
        of online status checking (the local oracle would catch it)."""
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        # Commit-time statuses are fetched at ~t = 7.0; proofs evaluate at
        # ~t = 9.7.  Revoke inside that window.
        revoke_at(cluster, credential.issuer, credential.cred_id, at_time=7.5)
        outcome = cluster.run_transaction(two_reads(credential), "deferred", VIEW)
        assert outcome.committed  # stale status answered "clean"

    def test_online_mode_matches_local_oracle_verdicts(self):
        """Same scenario, both modes: identical commit/abort decisions."""
        results = {}
        for online in (False, True):
            config = CloudConfig(latency=FixedLatency(1.0), use_online_ocsp=online)
            cluster = build_cluster(n_servers=2, seed=82, config=config)
            credential = cluster.issue_role_credential("alice")
            revoke_at(cluster, credential.issuer, credential.cred_id, at_time=4.0)
            outcome = cluster.run_transaction(
                two_reads(credential, f"t-{online}"), "punctual", VIEW
            )
            results[online] = outcome.committed
        assert results[False] == results[True]

    def test_down_responder_fails_closed(self):
        """No status service ⇒ no semantic validity ⇒ denial, not a grant."""
        cluster = make_cluster()
        credential = cluster.issue_role_credential("alice")
        cluster.ocsp.crash()
        # Keep the run bounded: the OCSP fetch has no timeout, so give the
        # request one via a shorter global request timeout on the server
        # side isn't modelled; instead heal after a while and ensure the
        # transaction still only commits with a real status.
        process = cluster.submit(two_reads(credential), "punctual", VIEW)
        cluster.run(until=30.0)
        assert not process.triggered  # stuck awaiting status, not granted
        cluster.ocsp.recover()
        # The in-flight fetch was lost; the transaction cannot complete.
        # A fresh transaction on a healthy responder commits fine.
        cluster2 = make_cluster(seed=83)
        credential2 = cluster2.issue_role_credential("alice")
        outcome = cluster2.run_transaction(two_reads(credential2), "punctual", VIEW)
        assert outcome.committed
