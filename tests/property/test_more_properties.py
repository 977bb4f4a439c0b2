"""Second batch of hypothesis property tests: I/O, DRAM, patterns, MRC."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mrc import INFINITE, miss_rate_curve, stack_distance_histogram
from repro.analysis.phases import detect_phases
from repro.dram import Dram, DramConfig
from repro.trace.io import read_trace, write_trace
from repro.trace.mixes import pair_coverage, random_mixes
from repro.trace.packed import PackedTrace
from repro.trace.record import TraceRecord
from repro.trace.simpoint import SimpointWeight, weighted_metric

# -- trace records ------------------------------------------------------------

records = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=2**60),
    load_addr=st.one_of(st.none(), st.integers(min_value=0, max_value=2**60)),
    store_addr=st.one_of(st.none(), st.integers(min_value=0, max_value=2**60)),
    is_branch=st.booleans(),
    taken=st.booleans(),
    dependent=st.booleans(),
)


class TestTraceIoProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(records, max_size=60))
    def test_round_trip_any_records(self, record_list):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace.gz"
            write_trace(PackedTrace.from_records(record_list, name="prop"),
                        path)
            assert read_trace(path).records == record_list


# -- DRAM ------------------------------------------------------------------

class TestDramProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**30),
                              st.integers(min_value=0, max_value=10**6),
                              st.booleans()),
                    min_size=1, max_size=60))
    def test_latency_bounds(self, requests):
        dram = Dram(DramConfig())
        config = dram.config
        cycle = 0
        for address, delta, is_write in requests:
            cycle += delta
            latency = dram.access(address, cycle, is_write=is_write)
            assert latency >= config.row_hit_latency
        assert dram.stats.accesses == len(requests)
        assert (dram.stats.row_hits + dram.stats.row_misses
                + dram.stats.row_conflicts) == len(requests)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_same_address_second_access_is_row_hit(self, address):
        dram = Dram(DramConfig())
        dram.access(address, 0)
        dram.access(address, 10**6)
        assert dram.stats.row_hits == 1


# -- stack distances / MRC ----------------------------------------------------

class TestMrcProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=150))
    def test_histogram_conserves_accesses(self, blocks):
        histogram = stack_distance_histogram([b * 64 for b in blocks])
        assert sum(histogram.values()) == len(blocks)
        assert histogram.get(INFINITE, 0) == len(set(blocks))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=150))
    def test_curve_monotone_nonincreasing(self, blocks):
        histogram = stack_distance_histogram([b * 64 for b in blocks])
        curve = miss_rate_curve(histogram, [0, 1, 4, 16, 64, 256])
        values = [curve[c] for c in sorted(curve)]
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in values)


# -- phases --------------------------------------------------------------------

class TestPhaseProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=60))
    def test_phases_partition_series(self, series):
        phases = detect_phases(series)
        assert phases[0].start == 0
        assert phases[-1].end == len(series)
        for first, second in zip(phases, phases[1:]):
            assert first.end == second.start
        assert all(p.length > 0 for p in phases)


# -- mixes ---------------------------------------------------------------------

class TestMixProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=4, max_value=20),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=1000))
    def test_coverage_in_unit_range(self, pool, n_mixes, seed):
        names = [f"w{i}" for i in range(pool)]
        limit = min(n_mixes, pool * (pool - 1) // 2)
        mixes = random_mixes(names, limit, 2, seed=seed)
        coverage = pair_coverage(mixes, names)
        assert 0.0 < coverage <= 1.0


# -- simpoints -------------------------------------------------------------------

class TestSimpointProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100,
                                        allow_nan=False),
                              st.floats(min_value=-10, max_value=10,
                                        allow_nan=False)),
                    min_size=1, max_size=20))
    def test_weighted_metric_within_bounds(self, pairs):
        weights = [SimpointWeight(f"t{i}", w) for i, (w, _) in enumerate(pairs)]
        per_trace = {f"t{i}": v for i, (_, v) in enumerate(pairs)}
        combined = weighted_metric(per_trace, weights)
        values = list(per_trace.values())
        assert min(values) - 1e-9 <= combined <= max(values) + 1e-9
