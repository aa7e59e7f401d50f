"""Property-based tests for consistency predicates and recovery analysis."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.consistency import phi_consistent, psi_consistent, view_instance
from repro.db.recovery import analyze
from repro.db.wal import LogRecordType, WriteAheadLog
from repro.policy.policy import PolicyId

from tests.core.test_consistency import make_proof

admins = st.sampled_from(["app", "hr", "fin"])
versions = st.integers(min_value=1, max_value=5)
servers = st.sampled_from(["s1", "s2", "s3", "s4"])


@st.composite
def proof_sets(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    proofs = []
    for index in range(count):
        proofs.append(
            make_proof(
                server=draw(servers),
                admin=draw(admins),
                version=draw(versions),
                at=float(draw(st.integers(min_value=0, max_value=20))),
                query=f"q{index}",
            )
        )
    return proofs


class TestPredicateProperties:
    @given(proof_sets())
    def test_psi_implies_phi(self, proofs):
        """Global consistency is strictly stronger than view consistency."""
        latest = {}
        for proof in proofs:
            latest[proof.policy_id] = max(
                latest.get(proof.policy_id, 0), proof.policy_version
            )
        if psi_consistent(proofs, latest):
            assert phi_consistent(proofs)

    @given(proof_sets())
    def test_phi_invariant_under_permutation(self, proofs):
        assert phi_consistent(proofs) == phi_consistent(list(reversed(proofs)))

    @given(proof_sets())
    def test_single_domain_single_version_always_phi(self, proofs):
        pinned = [
            make_proof(server=proof.server, admin="app", version=2, at=proof.evaluated_at)
            for proof in proofs
        ]
        assert phi_consistent(pinned)

    @given(proof_sets(), st.floats(min_value=0, max_value=25))
    def test_view_instance_is_monotone_prefix(self, proofs, instant):
        """Def. 7: a view instance grows monotonically with the instant."""
        earlier = view_instance(proofs, instant)
        later = view_instance(proofs, instant + 1.0)
        assert set(id(p) for p in earlier) <= set(id(p) for p in later)
        assert all(proof.evaluated_at <= instant for proof in earlier)

    @given(proof_sets())
    def test_subset_of_phi_consistent_view_stays_phi(self, proofs):
        if phi_consistent(proofs):
            for cut in range(len(proofs)):
                assert phi_consistent(proofs[:cut])


record_types = st.sampled_from(
    [
        LogRecordType.BEGIN,
        LogRecordType.PREPARED,
        LogRecordType.COMMIT,
        LogRecordType.ABORT,
        LogRecordType.END,
    ]
)


@st.composite
def wal_histories(draw):
    wal = WriteAheadLog()
    count = draw(st.integers(min_value=0, max_value=20))
    for index in range(count):
        txn = f"t{draw(st.integers(min_value=1, max_value=4))}"
        wal.force(draw(record_types), txn, now=float(index))
    return wal


class TestRecoveryProperties:
    @given(wal_histories())
    @settings(max_examples=200)
    def test_classification_is_a_partition(self, wal):
        """No transaction lands in two recovery buckets."""
        plan = analyze(wal)
        buckets = list(plan.redo_commits) + list(plan.undo_aborts) + list(plan.in_doubt)
        assert len(buckets) == len(set(buckets))

    @given(wal_histories())
    @settings(max_examples=200)
    def test_in_doubt_requires_prepared_record(self, wal):
        plan = analyze(wal)
        for txn in plan.in_doubt:
            kinds = [record.record_type for record in wal.records_for(txn)]
            assert LogRecordType.PREPARED in kinds
            assert LogRecordType.COMMIT not in kinds
            assert LogRecordType.ABORT not in kinds

    @given(wal_histories())
    @settings(max_examples=200)
    def test_redo_requires_commit_record(self, wal):
        plan = analyze(wal)
        for txn in plan.redo_commits:
            kinds = [record.record_type for record in wal.records_for(txn)]
            assert LogRecordType.COMMIT in kinds
