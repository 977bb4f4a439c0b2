"""Tests for the sampler internals and warm-up statistics reset."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy, build_llc
from repro.core import ContentionTracker
from repro.cpu import Core
from repro.obs import IntervalSampler
from repro.sim.session import reset_stats
from repro.sim.simulator import simulate
from repro.trace import Trace, TraceRecord, build_trace, get_workload
from repro.trace.packed import PackedTrace
from tests.retire import retire


def make_rig(config):
    tracker = ContentionTracker()
    llc = build_llc(config)
    hierarchy = MemoryHierarchy(config, 0, llc=llc, tracker=tracker,
                                registry={})
    core = Core(config.core, hierarchy, PackedTrace())
    return core, hierarchy, llc, tracker


class TestSampler:
    """The host owns the cadence: ``sample()`` emits exactly when called."""

    def test_sample_emits_unconditionally(self, config):
        # The sampler never second-guesses the host — even a short interval
        # worth of work produces a sample when the host asks for one.
        core, hierarchy, llc, tracker = make_rig(config)
        sampler = IntervalSampler(core, llc, 0, tracker, interval=1_000)
        for i in range(500):
            retire(core, TraceRecord(0x400000 + (i % 16) * 4))
        sampler.sample()
        assert len(sampler.samples) == 1
        assert sampler.samples[0].instructions == 500

    def test_samples_are_deltas(self, config):
        core, hierarchy, llc, tracker = make_rig(config)
        sampler = IntervalSampler(core, llc, 0, tracker, interval=1_000)
        for round_ in range(3):
            for i in range(1_000):
                retire(core, TraceRecord(
                    0x400000 + (i % 16) * 4,
                    load_addr=0x100000000 + (round_ * 1_000 + i) * 64))
            sampler.sample()
        assert len(sampler.samples) == 3
        assert all(s.instructions == 1_000 for s in sampler.samples)
        total_cycles = sum(s.cycles for s in sampler.samples)
        assert total_cycles == core.cycle

    def test_sample_metrics_consistent(self, config):
        core, hierarchy, llc, tracker = make_rig(config)
        sampler = IntervalSampler(core, llc, 0, tracker, interval=500)
        for i in range(500):
            retire(core, TraceRecord(0x400000,
                                     load_addr=0x100000000 + i * 64))
        sampler.sample()
        sample = sampler.samples[0]
        assert sample.llc_misses <= sample.llc_accesses
        assert 0.0 <= sample.occupancy <= 1.0
        assert sample.ipc == pytest.approx(sample.instructions / sample.cycles)


class TestSamplingCadence:
    """One sample per full interval of the measured region — no more, no
    less. The earlier double-gated design (host modulo AND an internal
    instruction-delta re-check) silently dropped samples whenever warm-up
    left the two conditions misaligned."""

    def test_exact_sample_count(self, config, gromacs_trace):
        result = simulate(gromacs_trace, config, sim_instructions=5_000,
                          sample_interval=1_000)
        assert len(result.samples) == 5
        assert all(s.instructions == 1_000 for s in result.samples)

    def test_warmup_not_multiple_of_interval(self, config, gromacs_trace):
        # Warm-up misaligns the retirement counter from the interval grid;
        # the executed-record count alone must still yield 4 full samples.
        result = simulate(gromacs_trace, config, warmup_instructions=1_357,
                          sim_instructions=4_000, sample_interval=1_000)
        assert len(result.samples) == 4
        assert all(s.instructions == 1_000 for s in result.samples)

    def test_partial_tail_interval_flushed(self, config, gromacs_trace):
        # The final 500 instructions don't fill an interval, but they are
        # still measured work — ``finalize()`` flushes them as a short
        # last sample instead of silently dropping them.
        result = simulate(gromacs_trace, config, sim_instructions=2_500,
                          sample_interval=1_000)
        assert len(result.samples) == 3
        assert [s.instructions for s in result.samples] == [1_000, 1_000, 500]
        assert sum(s.cycles for s in result.samples) == result.cycles

    def test_aligned_run_has_no_tail_sample(self, config, gromacs_trace):
        # finalize() is a no-op when the last interval ended exactly at the
        # instruction budget — no empty trailing sample.
        result = simulate(gromacs_trace, config, sim_instructions=3_000,
                          sample_interval=1_000)
        assert len(result.samples) == 3
        assert all(s.instructions == 1_000 for s in result.samples)

    def test_samples_cover_measured_region_exactly(self, config,
                                                   gromacs_trace):
        result = simulate(gromacs_trace, config, warmup_instructions=777,
                          sim_instructions=3_000, sample_interval=1_000)
        assert sum(s.instructions for s in result.samples) == 3_000
        assert sum(s.cycles for s in result.samples) == result.cycles

    def test_pair_host_samples_primary_only(self, config, gromacs_trace,
                                            lbm_trace):
        from repro.sim.multicore import simulate_pair

        result = simulate_pair(gromacs_trace, lbm_trace, config,
                               warmup_instructions=501,
                               sim_instructions=2_000, sample_interval=500)
        assert len(result.samples) == 4
        assert all(s.instructions == 500 for s in result.samples)


class TestResetStats:
    def test_counters_cleared_state_kept(self, config):
        core, hierarchy, llc, tracker = make_rig(config)
        for i in range(64):
            retire(core, TraceRecord(0x400000,
                                     load_addr=0x100000000 + i * 64))
        occupancy_before = llc.occupancy()
        reset_stats(core, hierarchy, tracker, 0)
        assert core.stats.instructions == 0
        assert hierarchy.l1d.stats.accesses == 0
        assert llc.stats.accesses == 0
        assert tracker.counters(0).llc_accesses == 0
        assert core.predictor.stats.lookups == 0
        # Cache contents survive — that is the whole point of warming.
        assert llc.occupancy() == occupancy_before

    def test_reuse_histograms_cleared(self, config):
        core, hierarchy, llc, tracker = make_rig(config)
        for _ in range(3):
            for i in range(32):
                retire(core, TraceRecord(0x400000,
                                         load_addr=0x100000000 + i * 4096))
        reset_stats(core, hierarchy, tracker, 0)
        assert sum(llc.reuse_histogram) == 0
        assert sum(llc.owner_reuse_histogram(0)) == 0


class TestSimulateEdgeCases:
    def test_zero_sim_instructions(self, config, gromacs_trace):
        result = simulate(gromacs_trace, config, warmup_instructions=100,
                          sim_instructions=0)
        assert result.instructions == 0
        assert result.ipc == 0.0

    def test_sample_interval_larger_than_run(self, config, gromacs_trace):
        # A run shorter than one interval still yields its (partial) sample
        # via the tail flush — previously these runs lost all sample data.
        result = simulate(gromacs_trace, config, sim_instructions=500,
                          sample_interval=10_000)
        assert len(result.samples) == 1
        assert result.samples[0].instructions == 500
        assert result.instructions == 500

    def test_xeon_preset_runs(self):
        from repro.config import xeon_config

        config = xeon_config()
        trace = build_trace(get_workload("619.lbm"), 4_000, 1,
                            config.llc.size)
        result = simulate(trace, config, sim_instructions=3_000)
        assert result.instructions == 3_000
        assert result.ipc > 0
