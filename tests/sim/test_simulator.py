"""Unit tests for the single-core simulator (isolation + PInTE modes)."""

import pytest

from repro.core import PinteConfig
from repro.sim import simulate
from repro.trace import PackedTrace, build_trace, get_workload


class TestBasicRun:
    def test_result_identity(self, lbm_trace, config, lbm_isolation):
        assert lbm_isolation.trace_name == "470.lbm"
        assert lbm_isolation.mode == "isolation"
        assert lbm_isolation.p_induce is None

    def test_instruction_count(self, lbm_isolation, tiny_scale):
        assert lbm_isolation.instructions == tiny_scale.sim_instructions

    def test_positive_ipc(self, lbm_isolation):
        assert lbm_isolation.ipc > 0

    def test_samples_collected(self, lbm_isolation, tiny_scale):
        expected = tiny_scale.sim_instructions // tiny_scale.sample_interval
        assert len(lbm_isolation.samples) == expected

    def test_sample_deltas_sum_to_totals(self, lbm_isolation):
        total = sum(s.instructions for s in lbm_isolation.samples)
        assert total == lbm_isolation.instructions

    def test_wall_time_recorded(self, lbm_isolation):
        assert lbm_isolation.wall_time_seconds > 0

    def test_empty_trace_rejected(self, config):
        with pytest.raises(ValueError, match="empty"):
            simulate(PackedTrace.from_records([], name="empty"), config)

    def test_trace_restarts_when_short(self, config):
        trace = build_trace(get_workload("435.gromacs"), 500, 1, config.llc.size)
        result = simulate(trace, config, sim_instructions=2000)
        assert result.instructions == 2000


class TestTraceInputs:
    """Entry points accept any record iterable, not just a
    ``PackedTrace`` (regression for the docstring/behaviour mismatch in
    :mod:`repro.trace.record`)."""

    @staticmethod
    def _comparable(result):
        from repro.sim.serialize import result_to_dict

        record = result_to_dict(result)
        record.pop("wall_time_seconds", None)
        # Anonymous inputs (lists, generators) carry no trace name.
        record.pop("trace_name", None)
        record["extra"] = {k: v for k, v in record["extra"].items()
                           if not k.endswith("_seconds")}
        return record

    def test_packed_trace_matches_trace(self, config, lbm_trace):
        baseline = simulate(lbm_trace, config, sim_instructions=2000)
        # Columns re-packed from the record view, under the trace's name.
        repacked = PackedTrace.from_records(lbm_trace.records,
                                            name=lbm_trace.name)
        packed = simulate(repacked, config, sim_instructions=2000)
        assert self._comparable(packed) == self._comparable(baseline)
        assert packed.trace_name == "470.lbm"

    def test_plain_list_matches_trace(self, config, lbm_trace):
        baseline = simulate(lbm_trace, config, sim_instructions=2000)
        as_list = simulate(list(lbm_trace.records), config,
                           sim_instructions=2000)
        assert self._comparable(as_list) == self._comparable(baseline)

    def test_generator_matches_trace(self, config, lbm_trace):
        from repro.trace import generate_records

        workload = get_workload("470.lbm")
        baseline = simulate(lbm_trace, config, sim_instructions=2000)
        streamed = simulate(
            generate_records(workload, len(lbm_trace), 1, config.llc.size),
            config, sim_instructions=2000)
        assert self._comparable(streamed) == self._comparable(baseline)


class TestWarmup:
    def test_warmup_stats_discarded(self, config, gromacs_trace):
        result = simulate(gromacs_trace, config, warmup_instructions=2000,
                          sim_instructions=2000)
        assert result.instructions == 2000

    def test_warmup_keeps_cache_state(self, config, gromacs_trace):
        """Warmed run must have a lower measured miss rate than a cold run
        of the same window (the whole point of warming)."""
        cold = simulate(gromacs_trace, config, warmup_instructions=0,
                        sim_instructions=2000)
        warm = simulate(gromacs_trace, config, warmup_instructions=4000,
                        sim_instructions=2000)
        assert warm.l1d_miss_rate <= cold.l1d_miss_rate


class TestDeterminism:
    def test_identical_runs_identical_results(self, config, gromacs_trace):
        a = simulate(gromacs_trace, config, sim_instructions=3000, seed=5)
        b = simulate(gromacs_trace, config, sim_instructions=3000, seed=5)
        assert a.ipc == b.ipc
        assert a.miss_rate == b.miss_rate
        assert a.reuse_histogram == b.reuse_histogram


class TestPinteMode:
    def test_mode_and_p_recorded(self, lbm_pinte):
        assert lbm_pinte.mode == "pinte"
        assert lbm_pinte.p_induce == 0.5

    def test_contention_induced(self, lbm_pinte):
        assert lbm_pinte.thefts_experienced > 0
        assert lbm_pinte.contention_rate > 0

    def test_performance_degrades_for_llc_bound(self, lbm_isolation, lbm_pinte):
        assert lbm_pinte.ipc < lbm_isolation.ipc

    def test_insensitive_workload_unaffected(self, config, povray_trace):
        isolation = simulate(povray_trace, config, warmup_instructions=1000,
                             sim_instructions=4000)
        contended = simulate(povray_trace, config, pinte=PinteConfig(1.0),
                             warmup_instructions=1000, sim_instructions=4000)
        assert contended.ipc == pytest.approx(isolation.ipc, rel=0.02)

    def test_trigger_stats_exported(self, lbm_pinte):
        assert lbm_pinte.extra["pinte_triggers"] > 0
        assert 0.4 < lbm_pinte.extra["pinte_trigger_rate"] < 0.6

    def test_higher_p_more_thefts(self, config, lbm_trace):
        low = simulate(lbm_trace, config, pinte=PinteConfig(0.05),
                       warmup_instructions=1000, sim_instructions=4000)
        high = simulate(lbm_trace, config, pinte=PinteConfig(0.8),
                        warmup_instructions=1000, sim_instructions=4000)
        assert high.thefts_experienced > low.thefts_experienced


class TestMetricsConsistency:
    def test_miss_rate_in_unit_range(self, lbm_pinte):
        assert 0.0 <= lbm_pinte.miss_rate <= 1.0

    def test_llc_counters_consistent(self, lbm_pinte):
        assert lbm_pinte.llc_misses <= lbm_pinte.llc_accesses

    def test_interference_bounded_by_misses(self, lbm_pinte):
        assert lbm_pinte.interference_misses <= lbm_pinte.llc_misses

    def test_occupancy_in_unit_range(self, lbm_isolation):
        assert 0.0 <= lbm_isolation.occupancy <= 1.0

    def test_mpki_properties(self, lbm_isolation):
        assert lbm_isolation.llc_mpki >= 0
        assert lbm_isolation.l2_mpki >= lbm_isolation.llc_mpki * 0.5  # sanity


class TestSingleCorePartitioner:
    """``partitioner=`` on single-core simulate() — a session-layer
    capability the original host never exposed."""

    def _partitioner(self, config, owners):
        from repro.cache.partition import make_partitioner
        n_ways = config.llc.assoc
        n_sets = config.llc.size // (n_ways * config.block_size)
        return make_partitioner("static", n_sets, n_ways, owners=owners)

    def test_half_quota_caps_occupancy(self, config, lbm_trace):
        # Owner 1 never runs, so its static half of the ways stays empty:
        # the LLC-bound workload cannot exceed half the LLC.
        unconstrained = simulate(lbm_trace, config, warmup_instructions=500,
                                 sim_instructions=4000)
        capped = simulate(lbm_trace, config,
                          partitioner=self._partitioner(config, [0, 1]),
                          warmup_instructions=500, sim_instructions=4000)
        assert unconstrained.occupancy > 0.5
        assert capped.occupancy <= 0.5
        assert capped.llc_misses >= unconstrained.llc_misses

    def test_deterministic(self, config, lbm_trace):
        a = simulate(lbm_trace, config,
                     partitioner=self._partitioner(config, [0, 1]),
                     sim_instructions=3000)
        b = simulate(lbm_trace, config,
                     partitioner=self._partitioner(config, [0, 1]),
                     sim_instructions=3000)
        assert a.ipc == b.ipc
        assert a.llc_misses == b.llc_misses
