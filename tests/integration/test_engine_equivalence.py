"""The indexed engine against its oracle, end to end.

Under a fixed seed, a run proved by the indexed/tabled engine and the same
run proved by the naive resolver (``tests/policy/rules_oracle.py``, put
under every ``RuleSet.prove`` call by monkeypatch — production code has no
engine switch) must produce **identical** ``TransactionOutcome`` sequences
— for every enforcement approach and both consistency levels, with and
without policy churn, with the proof cache on or off.  The engine may only
cost host CPU; it must never decide a verdict, a 2PV/2PVC vote, a commit
decision, or a Table I counter.
"""

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel
from repro.policy.rules import RuleSet
from tests.policy.rules_oracle import NaiveRuleSet

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(approach, level, *, update_interval=None):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=update_interval,
        seed=37,
    )
    return run_point(point).outcomes


@pytest.fixture
def naive(monkeypatch):
    """Run ``outcomes`` with every proof search done by the oracle."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(
                RuleSet,
                "prove",
                lambda self, goal, facts, counters=None: NaiveRuleSet(self.rules).prove(
                    goal, facts
                ),
            )
            return outcomes(*args, **kwargs)

    return run


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_indexed_equals_naive(approach, level, naive):
    assert outcomes(approach, level) == naive(approach, level)


@pytest.mark.parametrize("approach", APPROACHES)
def test_indexed_equals_naive_under_policy_churn(approach, naive):
    # Policy updates re-prove under fresh versions mid-run; the engines
    # must stay in lockstep across version churn and cache invalidation.
    indexed = outcomes(approach, ConsistencyLevel.VIEW, update_interval=15.0)
    assert indexed == naive(approach, ConsistencyLevel.VIEW, update_interval=15.0)


def test_indexed_equals_naive_uncached(naive, uncached):
    # Without the proof cache every evaluation walks the engine, so this
    # exercises the resolvers hardest.
    with uncached():
        indexed = outcomes("continuous", ConsistencyLevel.VIEW)
        assert indexed == naive("continuous", ConsistencyLevel.VIEW)
