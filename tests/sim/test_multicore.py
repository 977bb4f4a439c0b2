"""Unit tests for the 2nd-Trace multicore simulator."""

import pytest

from repro.sim import simulate, simulate_pair
from repro.sim.multicore import ADDRESS_SPACE_STRIDE, all_pairs
from repro.sim.session import core_stream
from repro.trace import PackedTrace, build_trace, get_workload


@pytest.fixture(scope="module")
def soplex_trace(config):
    return build_trace(get_workload("450.soplex"), 6000, 3, config.llc.size)


@pytest.fixture(scope="module")
def pair_result(config, lbm_trace, soplex_trace):
    return simulate_pair(lbm_trace, soplex_trace, config,
                         warmup_instructions=1000, sim_instructions=5000,
                         sample_interval=1000, return_secondary=True)


class TestPairRun:
    def test_mode_and_co_runner(self, pair_result):
        assert pair_result.mode == "2nd-trace"
        assert pair_result.trace_name == "470.lbm"
        assert pair_result.co_runner == "450.soplex"

    def test_primary_instruction_budget(self, pair_result):
        assert pair_result.instructions == 5000

    def test_contention_arises(self, pair_result):
        assert pair_result.thefts_experienced > 0

    def test_secondary_metrics_exported(self, pair_result):
        assert pair_result.extra["secondary_ipc"] > 0
        # Cycle-synchronised scheduling: the secondary retires however many
        # instructions fit the shared timeline, not a fixed budget.
        assert pair_result.extra["secondary_instructions"] > 0

    def test_contention_hurts_llc_bound_primary(self, config, lbm_trace,
                                                gromacs_trace):
        isolation = simulate(lbm_trace, config, warmup_instructions=1000,
                             sim_instructions=5000)
        pair = simulate_pair(lbm_trace, gromacs_trace, config,
                             warmup_instructions=1000, sim_instructions=5000)
        assert pair.ipc <= isolation.ipc

    def test_empty_trace_rejected(self, config, lbm_trace):
        with pytest.raises(ValueError, match="empty"):
            simulate_pair(lbm_trace,
                          PackedTrace.from_records([], name="empty"), config)

    def test_deterministic(self, config, lbm_trace, gromacs_trace):
        a = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3000)
        b = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3000)
        assert a.ipc == b.ipc
        assert a.thefts_experienced == b.thefts_experienced


class TestAddressSpaces:
    def test_core0_unchanged(self, lbm_trace):
        # Zero offset is a zero-copy passthrough of the packed columns.
        assert core_stream(lbm_trace, 0) is lbm_trace

    def test_core1_offset(self, lbm_trace):
        offset = core_stream(lbm_trace, 1)
        for original, shifted in zip(lbm_trace.records[:100],
                                     offset.records[:100]):
            assert shifted.pc == original.pc + ADDRESS_SPACE_STRIDE
            if original.load_addr is not None:
                assert shifted.load_addr == original.load_addr + ADDRESS_SPACE_STRIDE

    def test_flags_preserved(self, lbm_trace):
        offset = core_stream(lbm_trace, 1)
        assert offset.flags == lbm_trace.flags

    def test_same_workload_can_pair_with_itself(self, config, gromacs_trace):
        result = simulate_pair(gromacs_trace, gromacs_trace, config,
                               sim_instructions=2000)
        assert result.instructions == 2000


class TestAllPairs:
    def test_count(self):
        names = [f"w{i}" for i in range(8)]
        assert len(all_pairs(names)) == 8 * 7 // 2

    def test_unique_unordered(self):
        pairs = all_pairs(["a", "b", "c"])
        assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_paper_scale(self):
        """188 traces -> 17,578 unique mixes, as the paper computes."""
        names = [str(i) for i in range(188)]
        assert len(all_pairs(names)) == 17578
