"""Unit tests for the trusted/safe predicates and Table I closed forms."""

import pytest

from repro.core.approaches import PAPER_APPROACHES
from repro.core.complexity import (
    TABLE1,
    log_complexity,
    max_messages,
    max_proofs,
)
from repro.core.consistency import ConsistencyLevel
from repro.core.trusted import check_safe, check_trusted
from repro.policy.policy import PolicyId

from tests.core.test_consistency import make_proof

VIEW, GLOBAL = ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL


class TestTrusted:
    def test_granted_consistent_in_window_is_trusted(self):
        proofs = [make_proof(at=2.0), make_proof("s2", at=3.0)]
        report = check_trusted(proofs, VIEW, alpha=0.0, omega=5.0)
        assert report.trusted
        assert not report.failures

    def test_denied_proof_breaks_trust(self):
        proofs = [make_proof(at=2.0, granted=False)]
        report = check_trusted(proofs, VIEW, alpha=0.0, omega=5.0)
        assert not report.trusted
        assert not report.all_granted

    def test_version_disagreement_breaks_trust(self):
        proofs = [make_proof("s1", version=1), make_proof("s2", version=2)]
        report = check_trusted(proofs, VIEW, alpha=0.0, omega=5.0)
        assert not report.trusted
        assert not report.consistent

    def test_evaluation_outside_window_breaks_trust(self):
        proofs = [make_proof(at=99.0)]
        report = check_trusted(proofs, VIEW, alpha=0.0, omega=5.0)
        assert not report.trusted
        assert not report.within_window

    def test_global_requires_latest(self):
        proofs = [make_proof(version=3, at=1.0)]
        assert check_trusted(proofs, GLOBAL, 0, 5, {PolicyId("app"): 3}).trusted
        assert not check_trusted(proofs, GLOBAL, 0, 5, {PolicyId("app"): 4}).trusted

    def test_empty_view_is_not_trusted(self):
        assert not check_trusted([], VIEW, 0, 5).trusted

    def test_bool_protocol(self):
        proofs = [make_proof(at=1.0)]
        assert bool(check_trusted(proofs, VIEW, 0, 5))


class TestSafe:
    def test_safe_needs_trust_and_integrity(self):
        proofs = [make_proof(at=1.0)]
        safe, _report = check_safe(proofs, VIEW, 0, 5, integrity_ok=True)
        assert safe
        unsafe, _report = check_safe(proofs, VIEW, 0, 5, integrity_ok=False)
        assert not unsafe

    def test_integrity_alone_is_not_safe(self):
        proofs = [make_proof(granted=False, at=1.0)]
        safe, report = check_safe(proofs, VIEW, 0, 5, integrity_ok=True)
        assert not safe and not report.trusted


class TestTable1Formulas:
    def test_all_eight_cells_present(self):
        assert len(TABLE1) == 8
        for approach in PAPER_APPROACHES:
            assert (approach, VIEW) in TABLE1
            assert (approach, GLOBAL) in TABLE1

    @pytest.mark.parametrize("n,u,r", [(3, 3, 1), (5, 5, 2), (8, 8, 3)])
    def test_view_messages(self, n, u, r):
        assert max_messages("deferred", VIEW, n, u, r) == 6 * n
        assert max_messages("punctual", VIEW, n, u, r) == 6 * n
        assert max_messages("incremental", VIEW, n, u, r) == 4 * n
        assert max_messages("continuous", VIEW, n, u, r) == u * (u + 1) + 4 * n

    @pytest.mark.parametrize("n,u,r", [(3, 3, 1), (5, 5, 2), (8, 8, 3)])
    def test_global_messages(self, n, u, r):
        assert max_messages("deferred", GLOBAL, n, u, r) == 2 * n + 2 * n * r + r
        assert max_messages("punctual", GLOBAL, n, u, r) == 2 * n + 2 * n * r + r
        assert max_messages("incremental", GLOBAL, n, u, r) == 4 * n + u
        assert (
            max_messages("continuous", GLOBAL, n, u, r)
            == u * (u + 1) + u + 2 * n + 2 * n * r + r
        )

    @pytest.mark.parametrize("n,u,r", [(3, 3, 1), (5, 5, 2), (8, 8, 3)])
    def test_proof_counts(self, n, u, r):
        assert max_proofs("deferred", VIEW, n, u, r) == 2 * u - 1
        assert max_proofs("deferred", GLOBAL, n, u, r) == u * r
        assert max_proofs("punctual", VIEW, n, u, r) == 3 * u - 1
        assert max_proofs("punctual", GLOBAL, n, u, r) == u + u * r
        assert max_proofs("incremental", VIEW, n, u, r) == u
        assert max_proofs("incremental", GLOBAL, n, u, r) == u
        assert max_proofs("continuous", VIEW, n, u, r) == u * (u + 1) // 2
        assert max_proofs("continuous", GLOBAL, n, u, r) == u * (u + 1) // 2 + u * r

    def test_log_complexity(self):
        assert log_complexity(3) == 7
        assert log_complexity(10) == 21

    def test_formula_text_is_reported(self):
        entry = TABLE1[("continuous", GLOBAL)]
        assert "u(u+1)" in entry.messages_text
