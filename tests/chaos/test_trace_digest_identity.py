"""``_trace_digest`` hashes exactly the text its ``repr``-based oracle hashes.

The digest renders each distinct fact once — a details tuple per tuple, a
``str``/``str`` pair per case, a timestamp per instant — and builds a tuple's
text from its pairs' renderings.  A memo may only share a rendering between
values that render alike, and equal values need not: ``True == 1``,
``1 == 1.0``, ``0.0 == -0.0``, a ``str`` enum equals its value, and ``nan``
is not equal to itself.  The oracle is the implementation that called
``repr`` on every distinct details tuple, copied here verbatim; the two must
agree on generated records heavy with those hazards and on the recorded
trace of every grid cell of seeds 83-86.
"""

from __future__ import annotations

import enum
import hashlib
import math
from typing import Any, Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import fuzz
from repro.chaos.fuzz import FuzzCase, _trace_digest, run_case
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from tests.obs.test_recorder_parity import N_TRANSACTIONS, PERF_PLAN


def grid_case(seed: int, approach: str, consistency: str) -> FuzzCase:
    """One case of the benchmark's fault grid: drops plus both crashes."""
    return FuzzCase(seed, PERF_PLAN, approach, consistency, n_transactions=N_TRANSACTIONS)


def oracle_digest(tracer: Any) -> str:
    """The digest as it was: ``repr`` of each distinct details tuple."""
    records = list(tracer)
    rendered: Dict[int, str] = {}
    lines = []
    for time, category, details in records:
        text = rendered.get(id(details))
        if text is None:
            text = rendered[id(details)] = repr(details)
        lines.append(f"{time!r}|{category}|{text}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class Kind(str, enum.Enum):
    """Equal to, and hashing as, the string ``"read"``; renders otherwise."""

    read = "read"


class Tag(str):
    def __repr__(self) -> str:
        return f"Tag({str.__repr__(self)})"


NAN = math.nan
#: Values equal to each other (or, ``nan``, to nothing) that render apart.
LOOK_ALIKES = [
    [True, 1, 1.0],
    [False, 0, 0.0, -0.0],
    ["read", Kind.read, Tag("read")],
    [NAN, float("nan")],
    [(1,), (True,), (1.0,)],
]
OTHERS = [None, math.inf, "", "'", '"', "it's", 'say "hi"', "back\\slash", "é", "日本", "\n",
          frozenset({1})]  # fmt: skip

look_alike = st.sampled_from(LOOK_ALIKES).flatmap(st.sampled_from)
values = st.one_of(
    look_alike,
    st.sampled_from(OTHERS),
    st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable
    st.dictionaries(st.sampled_from("ab"), look_alike, max_size=2),
)


@st.composite
def tracers(draw) -> List[tuple]:
    """Records drawn from small pools, each seeded with one whole look-alike
    class: equal pairs recur across details tuples, a class meets itself as
    keys, values and times, and tuples are shared by identity (a message's
    net.send and net.recv records share one)."""
    key_pool = ["k", *draw(st.lists(st.text(max_size=2), max_size=2))]
    key_pool += draw(st.sampled_from(LOOK_ALIKES))
    value_pool = ["v", *draw(st.lists(values, min_size=1, max_size=3))]
    value_pool += draw(st.sampled_from(LOOK_ALIKES))
    time_pool = draw(st.lists(st.floats(allow_nan=True), max_size=2))
    time_pool += draw(st.sampled_from(LOOK_ALIKES))
    pair = st.tuples(st.sampled_from(key_pool), st.sampled_from(value_pool))
    pool = draw(st.lists(st.lists(pair, max_size=5).map(tuple), min_size=1, max_size=6))
    return [
        (time, draw(st.sampled_from(["net.send", "lock.grant"])), pool[index])
        for time, index in draw(
            st.lists(st.tuples(st.sampled_from(time_pool), st.integers(0, len(pool) - 1)),
                     max_size=12)
        )
    ]  # fmt: skip


def hazard_pairs_tracer(pairs: List[tuple]) -> List[tuple]:
    """Each pair alone, then all together, then again alone (the memo warm)."""
    alone = [(1.0, "c", (pair,)) for pair in pairs]
    return alone + [(2.0, "c", tuple(pairs))] + [(3.0, "c", (pair,)) for pair in pairs]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tracers())
@example([(1.0, "c", (("k", True),)), (1.0, "c", (("k", 1),))])
@example([(1.0, "c", (("k", 1),)), (1.0, "c", (("k", 1.0),))])
@example([(1.0, "c", (("k", 0.0),)), (1.0, "c", (("k", -0.0),))])
@example([(1.0, "c", (("k", NAN),)), (1.0, "c", (("k", float("nan")),))])
@example([(1.0, "c", (("k", "read"),)), (1.0, "c", (("k", Kind.read),))])
@example([(0.0, "c", ()), (-0.0, "c", ()), (1.0, "c", ()), (1, "c", ()), (True, "c", ())])
def test_the_digest_hashes_what_repr_renders(records):
    assert _trace_digest(records) == oracle_digest(records)


@pytest.mark.parametrize(
    "pairs",
    [
        [("k", True), ("k", 1), ("k", 1.0)],
        [("k", 0.0), ("k", -0.0)],
        [("k", NAN), ("k", float("nan")), ("k", NAN)],
        [("k", "read"), ("k", Kind.read), ("k", Tag("read"))],
        [(1, "v"), (True, "v"), (1.0, "v")],
        [("k", "it's"), ("k", 'say "hi"'), ("k", "back\\slash"), ("k", "é")],
        [("k", [1]), ("k", {"a": 1}), ("k", [1])],
    ],
)
def test_equal_values_that_render_apart(pairs):
    records = hazard_pairs_tracer(pairs)
    assert _trace_digest(records) == oracle_digest(records)


@pytest.fixture
def digests_of_recorded_tracers(monkeypatch):
    """(new, oracle) for the trace of every case ``run_case`` digests."""
    seen = []

    def both(tracer):
        seen.append((_trace_digest(tracer), oracle_digest(tracer)))
        return seen[-1][0]

    monkeypatch.setattr(fuzz, "_trace_digest", both)
    return seen


@pytest.mark.parametrize("seed", (83, 84, 85, 86))
def test_recorded_tracers_of_every_grid_cell(digests_of_recorded_tracers, seed):
    results = [
        run_case(grid_case(seed, approach, consistency))
        for approach in PAPER_APPROACHES
        for consistency in CONSISTENCY_LEVELS
    ]
    seen = digests_of_recorded_tracers
    assert len(seen) == 8
    assert [new for new, _ in seen] == [oracle for _, oracle in seen]
    assert [result.trace_digest for result in results] == [new for new, _ in seen]
