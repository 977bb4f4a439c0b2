"""Unit tests for the cycle-accounting core model."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import scaled_config
from repro.cpu import Core
from repro.trace.packed import PackedTrace
from repro.trace.record import TraceRecord
from tests.retire import retire

CFG = scaled_config()


def make_core(config=CFG):
    hierarchy = MemoryHierarchy(config, 0, registry={})
    return Core(config.core, hierarchy, PackedTrace())


class TestBasicAccounting:
    def test_alu_instructions_cost_issue_slots(self):
        core = make_core()
        for i in range(400):
            retire(core, TraceRecord(0x400000 + (i % 16) * 4))
        # 400 instructions at width 4 = ~100 cycles + one I-fetch miss.
        assert core.stats.instructions == 400
        assert core.cycle < 400
        assert core.ipc > 1.0

    def test_ipc_zero_before_running(self):
        assert make_core().ipc == 0.0

    def test_load_miss_stalls(self):
        core = make_core()
        baseline = make_core()
        for i in range(200):
            retire(baseline, TraceRecord(0x400000))
            retire(core, TraceRecord(0x400000,
                                     load_addr=0x100000000 + i * 4096))
        assert core.cycle > baseline.cycle
        assert core.stats.loads == 200

    def test_dependent_load_stalls_more(self):
        independent = make_core()
        dependent = make_core()
        for i in range(200):
            address = 0x100000000 + i * 4096
            retire(independent, TraceRecord(0x400000, load_addr=address))
            retire(dependent, TraceRecord(0x400000, load_addr=address,
                                          dependent=True))
        assert dependent.cycle > independent.cycle

    def test_store_miss_charged_less_than_load_miss(self):
        """A single store miss stalls the core less than a single load miss
        (stores retire through the write buffer)."""
        loads = make_core()
        stores = make_core()
        retire(loads, TraceRecord(0x400000, load_addr=0x100000000))
        retire(stores, TraceRecord(0x400000, store_addr=0x100000000))
        assert stores.cycle < loads.cycle

    def test_l1_hits_are_cheap(self):
        core = make_core()
        retire(core, TraceRecord(0x400000, load_addr=0x100000000))
        start = core.cycle
        for _ in range(100):
            retire(core, TraceRecord(0x400000, load_addr=0x100000000))
        # 100 L1-hit loads should cost ~issue bandwidth only.
        assert core.cycle - start < 100


class TestBranches:
    def test_mispredict_penalty(self):
        core = make_core()
        # Unpredictable alternation against a fresh bimodal-ish predictor
        # costs flush penalties; a perfectly-biased branch does not.
        biased = make_core()
        for i in range(500):
            retire(core, TraceRecord(0x400000, is_branch=True, taken=i % 2 == 0))
            retire(biased, TraceRecord(0x400000, is_branch=True, taken=True))
        assert core.cycle > biased.cycle
        assert core.stats.branches == 500

    def test_branch_stats_flow_to_predictor(self):
        core = make_core()
        for _ in range(50):
            retire(core, TraceRecord(0x400000, is_branch=True, taken=True))
        assert core.predictor.stats.lookups == 50


class TestAmat:
    def test_amat_counts_loads_and_stores(self):
        core = make_core()
        retire(core, TraceRecord(0x400000, load_addr=0x100000000))
        retire(core, TraceRecord(0x400000, store_addr=0x100000040))
        assert core.stats.mem_accesses == 2
        assert core.stats.amat > 0

    def test_amat_zero_without_memory(self):
        core = make_core()
        retire(core, TraceRecord(0x400000))
        assert core.stats.amat == 0.0

    def test_amat_approaches_l1_latency_on_hits(self):
        core = make_core()
        for _ in range(500):
            retire(core, TraceRecord(0x400000, load_addr=0x100000000))
        assert core.stats.amat < CFG.l1d.latency * 1.5


class TestInstructionFetch:
    def test_fetch_once_per_block(self):
        core = make_core()
        for _ in range(10):
            retire(core, TraceRecord(0x400000))  # same block every time
        assert core.hierarchy.l1i.stats.accesses == 1

    def test_fetch_on_block_change(self):
        core = make_core()
        retire(core, TraceRecord(0x400000))
        retire(core, TraceRecord(0x400040))  # next 64B block
        assert core.hierarchy.l1i.stats.accesses == 2

    def test_clock_is_monotonic(self):
        core = make_core()
        last = 0
        for i in range(200):
            retire(core, TraceRecord(0x400000 + (i % 64) * 4,
                                     load_addr=0x100000000 + i * 64))
            assert core.cycle >= last
            last = core.cycle
