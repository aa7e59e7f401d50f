"""Property tests: the one outcome aggregate equals the list formulas.

:func:`repro.metrics.stats.aggregate` folds counts, integer means and the
abort-reason tally through
:class:`~repro.metrics.stats.StreamingOutcomeAggregator` and takes its
float sums with built-in ``sum`` (compensated from Python 3.12, so a
left-to-right ``+=`` would not match it there).  On random outcome lists —
empty, all commits, all aborts, mixed abort reasons (``None`` among them) —
every column must equal :func:`aggregate_oracle.reference_aggregate`'s bit
for bit on every Python version: floats by their ``float.hex``, so a sum
taken another way would show, and the abort-reason tally in the same
insertion order.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import AbortReason
from repro.metrics.stats import TransactionOutcome, aggregate
from tests.property.aggregate_oracle import reference_aggregate

#: Simulated instants: exact zeroes, ties, sub-unit and WAN-scale values.
times = st.one_of(
    st.just(0.0),
    st.sampled_from((0.1, 0.5, 1.0, 7.3, 100.0, 1500.25)),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False),
)


@st.composite
def outcomes(draw, committed=st.booleans()):
    started = draw(times)
    execution = draw(times)
    commit_phase = draw(times)
    total = draw(st.integers(min_value=1, max_value=6))
    return TransactionOutcome(
        txn_id=f"t{draw(st.integers(min_value=0, max_value=10**6))}",
        approach="deferred",
        consistency="view",
        committed=draw(committed),
        abort_reason=draw(st.one_of(st.none(), st.sampled_from(list(AbortReason)))),
        started_at=started,
        execution_done_at=started + execution,
        finished_at=started + execution + commit_phase,
        queries_total=total,
        queries_executed=draw(st.integers(min_value=0, max_value=total)),
        participants=draw(st.integers(min_value=0, max_value=4)),
        voting_rounds=draw(st.integers(min_value=0, max_value=3)),
        protocol_messages=draw(st.integers(min_value=0, max_value=40)),
        proof_evaluations=draw(st.integers(min_value=0, max_value=40)),
        commit_rounds=draw(st.integers(min_value=0, max_value=3)),
    )


outcome_lists = st.one_of(
    st.just([]),
    st.lists(outcomes(committed=st.just(False)), min_size=1, max_size=40),
    st.lists(outcomes(committed=st.just(True)), min_size=1, max_size=40),
    st.lists(outcomes(), max_size=80),
)


def columns(summary):
    """Every column, floats by their exact bits, the tally with its order."""
    exact = []
    for field in dataclasses.fields(summary):
        value = getattr(summary, field.name)
        if field.name == "abort_reasons":
            exact.append(list(value.items()))
        elif isinstance(value, float):
            exact.append(value.hex())
        else:
            exact.append(value)
    return exact


@settings(max_examples=300, deadline=None)
@given(outcome_lists)
def test_aggregate_equals_the_list_formulas_bit_for_bit(batch):
    mine, reference = aggregate(batch), reference_aggregate(batch)
    if not batch:
        # The one difference: ``sum([])`` is the int 0, the fold's total the
        # float 0.0 — equal, and the fold's is the annotated type.
        assert reference.total_wasted_time == 0 and mine.total_wasted_time == 0.0
        reference = dataclasses.replace(reference, total_wasted_time=0.0)
    assert columns(mine) == columns(reference)


@settings(max_examples=100, deadline=None)
@given(outcome_lists)
def test_aggregate_consumes_any_iterable_once(batch):
    assert columns(aggregate(iter(batch))) == columns(aggregate(batch))
