"""Tests for the CPI-stack breakdown."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import scaled_config
from repro.cpu import Core
from repro.sim import simulate
from repro.trace import TraceRecord, build_trace, get_workload
from repro.trace.packed import PackedTrace
from tests.retire import retire

CFG = scaled_config()


def make_core():
    return Core(CFG.core, MemoryHierarchy(CFG, 0, registry={}), PackedTrace())


class TestComponents:
    def test_stack_sums_to_cpi(self):
        core = make_core()
        for i in range(400):
            retire(core, TraceRecord(0x400000 + (i % 64) * 4,
                                     load_addr=0x100000000 + i * 256,
                                     is_branch=(i % 7 == 0), taken=True))
        stack = core.stats.cpi_stack()
        cpi = core.cycle / core.stats.instructions
        assert sum(stack.values()) == pytest.approx(cpi, rel=0.01)

    def test_alu_only_is_pure_base(self):
        core = make_core()
        for _ in range(100):
            retire(core, TraceRecord(0x400000))
        stack = core.stats.cpi_stack()
        assert stack["base"] == pytest.approx(0.25)
        assert stack["load"] == 0.0
        assert stack["branch"] == 0.0

    def test_load_stalls_attributed(self):
        core = make_core()
        for i in range(100):
            retire(core, TraceRecord(0x400000,
                                     load_addr=0x100000000 + i * 4096))
        assert core.stats.cpi_stack()["load"] > 1.0

    def test_branch_stalls_attributed(self):
        core = make_core()
        for i in range(400):
            retire(core, TraceRecord(0x400000, is_branch=True,
                                     taken=i % 2 == 0))
        assert core.stats.cpi_stack()["branch"] > 0.0

    def test_empty_stack(self):
        stack = make_core().stats.cpi_stack()
        assert all(value == 0.0 for value in stack.values())


class TestResultIntegration:
    def test_cpi_stack_in_result_extra(self, config, gromacs_trace):
        result = simulate(gromacs_trace, config, warmup_instructions=500,
                          sim_instructions=3_000)
        components = {k: v for k, v in result.extra.items()
                      if k.startswith("cpi_")}
        assert set(components) == {"cpi_base", "cpi_fetch", "cpi_load",
                                   "cpi_store", "cpi_branch"}
        total_cpi = result.cycles / result.instructions
        assert sum(components.values()) == pytest.approx(total_cpi, rel=0.01)

    def test_contention_grows_load_component(self, config):
        from repro.core import PinteConfig

        trace = build_trace(get_workload("470.lbm"), 8_000, 1,
                            config.llc.size)
        isolation = simulate(trace, config, warmup_instructions=2_000,
                             sim_instructions=6_000)
        contended = simulate(trace, config, pinte=PinteConfig(0.8),
                             warmup_instructions=2_000,
                             sim_instructions=6_000)
        assert contended.extra["cpi_load"] > isolation.extra["cpi_load"]
        # Base component is contention-invariant.
        assert contended.extra["cpi_base"] == pytest.approx(
            isolation.extra["cpi_base"])