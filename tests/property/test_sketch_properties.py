"""Property tests: sketch quantile error bound survives arbitrary merges.

The live-telemetry layer's central claim (``docs/observability.md``): a
:class:`repro.obs.sketch.QuantileSketch` reports any quantile within
relative error α of the exact nearest-rank sample, and *merging* per-label
sketches — however the samples were split — costs nothing beyond that
same α, because merge adds bucket counts exactly.  These tests drive
randomized value sets through randomized partitions and check both halves
of the claim against :func:`repro.metrics.stats.percentile` computed on
the pooled samples.

Value generation mixes scales deliberately (sub-unit durations, typical
latencies, WAN-scale outliers, exact zeroes): bucket keys are logarithmic,
so wide dynamic range plus ties is where an off-by-one in the key or rank
arithmetic would surface first.
"""

import functools
import math
import operator

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.metrics.stats import percentile
from repro.obs.sketch import QuantileSketch

ALPHAS = (0.01, 0.05)
FRACTIONS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)

#: Mixed-scale positive magnitudes plus exact zero (the zero-bucket path).
values_strategy = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from((0.125, 1.0, 7.5, 100.0, 100.0, 4096.0)),
    ),
    min_size=1,
    max_size=300,
)


def build(values, alpha):
    sketch = QuantileSketch(alpha)
    for value in values:
        sketch.add(value)
    return sketch


def assert_within_alpha(sketch, values, alpha):
    for fraction in FRACTIONS:
        exact = percentile(values, fraction)
        estimate = sketch.quantile(fraction)
        assert abs(estimate - exact) <= alpha * exact + 1e-12, (
            f"q{fraction}: {estimate} vs exact {exact} (alpha={alpha})"
        )


class TestSingleSketchBound:
    @given(values_strategy, st.sampled_from(ALPHAS))
    @settings(max_examples=150, deadline=None)
    def test_quantiles_within_relative_error(self, values, alpha):
        assert_within_alpha(build(values, alpha), values, alpha)

    @given(values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_count_sum_min_max_exact(self, values):
        sketch = build(values, 0.01)
        assert sketch.count == len(values)
        # ``add`` accumulates left to right with ``+=``; builtin ``sum()`` of
        # floats is compensated from Python 3.12 on, so it is not that sum.
        assert sketch.sum == functools.reduce(operator.add, values, 0.0)
        assert math.isclose(sketch.sum, math.fsum(values), rel_tol=1e-9)
        assert sketch.min == min(values)
        assert sketch.max == max(values)


class TestMergeProperties:
    @given(
        values_strategy,
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=300),
        st.sampled_from(ALPHAS),
    )
    @settings(max_examples=150, deadline=None)
    def test_merged_quantiles_within_alpha_of_pooled_exact(
        self, values, assignment, alpha
    ):
        """Split values into up to 8 sketches, merge, compare to pooled exact.

        This is exactly the roll-up the live layer performs: per-(region,
        shard) sketches merged into a per-approach quantile.  The merged
        estimate must satisfy the *same* α bound as a single sketch fed
        every value directly.
        """
        shards = {}
        for index, value in enumerate(values):
            shard = assignment[index % len(assignment)]
            shards.setdefault(shard, QuantileSketch(alpha)).add(value)
        merged = QuantileSketch.merged(shards.values())
        assert merged.count == len(values)
        assert_within_alpha(merged, values, alpha)

    @given(
        values_strategy,
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_is_bit_identical_to_direct(self, values, assignment):
        """merge(sketch(A), sketch(B), …) == sketch(A ∪ B), exactly."""
        direct = QuantileSketch(0.01)
        shards = {}
        for index, value in enumerate(values):
            direct.add(value)
            shard = assignment[index % len(assignment)]
            shards.setdefault(shard, QuantileSketch(0.01)).add(value)
        merged = QuantileSketch.merged(shards.values())
        merged_state, direct_state = merged.to_dict(), direct.to_dict()
        # ``sum`` accumulates in shard order (float association); every
        # discrete field — buckets, counts, extremes — is bit-identical.
        assert abs(merged_state.pop("sum") - direct_state.pop("sum")) <= 1e-9 * max(
            1.0, abs(direct.sum)
        )
        assert merged_state == direct_state
        assert [merged.quantile(f) for f in FRACTIONS] == [
            direct.quantile(f) for f in FRACTIONS
        ]

    @given(values_strategy, values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, left_values, right_values):
        forward = build(left_values, 0.01)
        forward.merge(build(right_values, 0.01))
        backward = build(right_values, 0.01)
        backward.merge(build(left_values, 0.01))
        assert forward.to_dict() == backward.to_dict()

    @given(values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_then_merge_preserves_estimates(self, values):
        """Serialized shards (the bench JSON path) merge losslessly."""
        original = build(values, 0.05)
        restored = QuantileSketch.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert_within_alpha(restored, values, 0.05)
