"""Unit tests for miss-rate-curve analysis."""

import pytest

from repro.analysis.mrc import (
    INFINITE,
    combined_mrc,
    miss_rate_curve,
    stack_distance_histogram,
    trace_addresses,
    trace_mrc,
    working_set_knee,
)
from repro.trace import PackedTrace, TraceRecord, build_trace, get_workload

BLOCK = 64


class TestStackDistances:
    def test_cold_misses_infinite(self):
        histogram = stack_distance_histogram([0, BLOCK, 2 * BLOCK])
        assert histogram == {INFINITE: 3}

    def test_immediate_reuse_distance_zero(self):
        histogram = stack_distance_histogram([0, 0, 0])
        assert histogram[0] == 2

    def test_interleaved_distance(self):
        # 0, 64, 0: block 0 reused with one distinct block between.
        histogram = stack_distance_histogram([0, BLOCK, 0])
        assert histogram[1] == 1

    def test_sub_block_offsets_collapse(self):
        histogram = stack_distance_histogram([0, 16, 48])
        assert histogram[0] == 2

    def test_max_depth_truncates(self):
        addresses = [i * BLOCK for i in range(10)] + [0]
        histogram = stack_distance_histogram(addresses, max_depth=4)
        # Block 0 fell off the 4-deep stack -> counted as infinite.
        assert histogram[INFINITE] == 11


class TestMissRateCurve:
    def test_zero_capacity_all_miss(self):
        histogram = stack_distance_histogram([0, 0, 0])
        curve = miss_rate_curve(histogram, [0])
        assert curve[0] == 1.0

    def test_monotone_nonincreasing(self):
        trace = build_trace(get_workload("450.soplex"), 4000, 1, 65536)
        curve = trace_mrc(trace, [0, 16, 64, 256, 1024], max_depth=1024)
        values = [curve[c] for c in sorted(curve)]
        assert values == sorted(values, reverse=True)

    def test_working_set_fits(self):
        # Cyclic loop over 4 blocks: a 4-block cache hits everything warm.
        addresses = [i % 4 * BLOCK for i in range(100)]
        histogram = stack_distance_histogram(addresses)
        curve = miss_rate_curve(histogram, [3, 4])
        assert curve[4] == pytest.approx(4 / 100)
        assert curve[3] == 1.0  # LRU worst case: cyclic scan one over size

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            miss_rate_curve({}, [4])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            miss_rate_curve({0: 1}, [-1])


class TestTraceHelpers:
    def test_trace_addresses_order(self):
        trace = PackedTrace.from_records([
            TraceRecord(0, load_addr=100),
            TraceRecord(4),
            TraceRecord(8, load_addr=200, store_addr=200),
            TraceRecord(12, store_addr=300),
        ], name="t")
        assert trace_addresses(trace) == [100, 200, 300]


class TestCombinedMrc:
    def test_single_curve_identity(self):
        curve = {0: 1.0, 4: 0.5, 8: 0.1}
        combined = combined_mrc([curve], [1.0])
        assert combined[8] == pytest.approx(0.1)

    def test_weighted_mixture(self):
        flat = {0: 1.0, 8: 1.0}       # streaming: never hits
        friendly = {0: 1.0, 8: 0.0}   # fits in 8 blocks
        combined = combined_mrc([friendly, flat], [1.0, 1.0])
        # At 16 blocks total, each gets ~8: friendly hits, flat misses.
        assert 0.4 < combined[8] <= 1.0

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            combined_mrc([{0: 1.0}], [1.0, 2.0])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            combined_mrc([{0: 1.0}], [0.0])

    def test_disjoint_capacities_rejected(self):
        with pytest.raises(ValueError):
            combined_mrc([{4: 0.5}, {8: 0.5}], [1, 1])


class TestWorkingSetKnee:
    def test_knee_at_fit(self):
        curve = {4: 1.0, 8: 0.9, 16: 0.02, 32: 0.01}
        assert working_set_knee(curve) == 16

    def test_flat_curve_knee_at_smallest(self):
        assert working_set_knee({4: 0.5, 8: 0.5}) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            working_set_knee({})


class TestAgainstSimulator:
    def test_mrc_predicts_llc_behaviour(self, config):
        """The MRC of an LLC-bound trace must show high miss rate below the
        footprint and low miss rate above it — consistent with what the
        simulator measures."""
        trace = build_trace(get_workload("470.lbm"), 16_000, 1,
                            config.llc.size)
        llc_blocks = config.llc.size // config.block_size
        curve = trace_mrc(trace, [llc_blocks // 8, llc_blocks * 2],
                          max_depth=llc_blocks * 2)
        assert curve[llc_blocks // 8] > 0.9  # far below the footprint
        assert curve[llc_blocks * 2] < 0.2   # cold misses only
