"""Unit tests for the memory hierarchy protocol."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy, build_llc
from repro.config import scaled_config
from repro.core import ContentionTracker
from repro.dram import Dram

CFG = scaled_config()
BLOCK = 64


def make_hierarchy(config=CFG, owner=0, llc=None, dram=None, tracker=None,
                   registry=None):
    return MemoryHierarchy(config, owner, llc=llc, dram=dram, tracker=tracker,
                           registry=registry)


class TestDemandPath:
    def test_l1_hit_latency(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0x400, 0x10000, 0)  # install
        assert hierarchy.load(0x400, 0x10000, 100) == CFG.l1d.latency

    def test_cold_miss_reaches_dram(self):
        hierarchy = make_hierarchy()
        latency = hierarchy.load(0x400, 0x10000, 0)
        floor = CFG.l1d.latency + CFG.l2.latency + CFG.llc.latency
        assert latency > floor
        assert hierarchy.dram.stats.reads == 1

    def test_miss_fills_all_levels_non_inclusive(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0x400, 0x10000, 0)
        block = 0x10000 & ~(BLOCK - 1)
        assert hierarchy.l1d.probe(block) >= 0
        assert hierarchy.l2.probe(block) >= 0
        assert hierarchy.llc.probe(block) >= 0

    def test_l2_hit_fills_l1(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0x400, 0x10000, 0)
        block = 0x10000 & ~(BLOCK - 1)
        hierarchy.l1d.invalidate(block)
        latency = hierarchy.load(0x400, 0x10000, 100)
        assert latency == CFG.l1d.latency + CFG.l2.latency
        assert hierarchy.l1d.probe(block) >= 0

    def test_store_marks_l1_dirty(self):
        hierarchy = make_hierarchy()
        hierarchy.store(0x400, 0x10000, 0)
        block = 0x10000 & ~(BLOCK - 1)
        assert hierarchy.l1d.probe(block) >= 0
        assert hierarchy.l1d.invalidate(block).dirty

    def test_fetch_uses_l1i(self):
        hierarchy = make_hierarchy()
        hierarchy.fetch(0x400000, 0)
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.accesses == 0

    def test_llc_access_recorded_in_tracker(self):
        tracker = ContentionTracker()
        hierarchy = make_hierarchy(tracker=tracker)
        hierarchy.load(0x400, 0x10000, 0)
        assert tracker.counters(0).llc_accesses == 1
        assert tracker.counters(0).llc_misses == 1

    def test_l1_hit_not_an_llc_access(self):
        tracker = ContentionTracker()
        hierarchy = make_hierarchy(tracker=tracker)
        hierarchy.load(0x400, 0x10000, 0)
        hierarchy.load(0x400, 0x10000, 10)
        assert tracker.counters(0).llc_accesses == 1


class TestWritebackFlow:
    def test_dirty_l1_eviction_lands_in_l2(self):
        hierarchy = make_hierarchy()
        hierarchy.store(0x400, 0x10000, 0)
        # Evict the dirty block from tiny L1 by filling past capacity.
        n_l1_blocks = CFG.l1d.size // BLOCK
        for i in range(1, 2 * n_l1_blocks + 1):
            hierarchy.load(0x400, 0x10000 + i * BLOCK * hierarchy.l1d.n_sets, 0)
        block = 0x10000 & ~(BLOCK - 1)
        if hierarchy.l1d.probe(block) < 0:  # got evicted
            assert hierarchy.l2.probe(block) >= 0
            assert hierarchy.l2.invalidate(block).dirty

    def test_llc_dirty_eviction_writes_dram(self):
        hierarchy = make_hierarchy()
        base = 0x10000
        n = hierarchy.llc.capacity_blocks * 3
        for i in range(n):
            hierarchy.store(0x400, base + i * BLOCK, i * 10)
        assert hierarchy.dram.stats.writes > 0


class TestSharedLlc:
    def test_cross_core_theft_detected(self):
        config = CFG
        tracker = ContentionTracker()
        llc = build_llc(config)
        dram = Dram(config.dram)
        registry = {}
        h0 = make_hierarchy(config, 0, llc=llc, dram=dram, tracker=tracker,
                            registry=registry)
        h1 = make_hierarchy(config, 1, llc=llc, dram=dram, tracker=tracker,
                            registry=registry)
        # Core 0 fills one LLC set completely, then core 1 forces evictions
        # in that same set.
        set_bytes = BLOCK * llc.n_sets
        for i in range(llc.assoc):
            h0.load(0x400, 0x10000 + i * set_bytes, 0)
        for i in range(llc.assoc):
            h1.load(0x400, 0x90000000 + i * set_bytes, 0)
        assert tracker.counters(0).thefts_experienced > 0
        assert tracker.counters(1).thefts_caused > 0

    def test_interference_on_reaccess(self):
        config = CFG
        tracker = ContentionTracker()
        llc = build_llc(config)
        dram = Dram(config.dram)
        registry = {}
        h0 = make_hierarchy(config, 0, llc=llc, dram=dram, tracker=tracker,
                            registry=registry)
        h1 = make_hierarchy(config, 1, llc=llc, dram=dram, tracker=tracker,
                            registry=registry)
        set_bytes = BLOCK * llc.n_sets
        for i in range(llc.assoc):
            h0.load(0x400, 0x10000 + i * set_bytes, 0)
        for i in range(llc.assoc):
            h1.load(0x400, 0x90000000 + i * set_bytes, 0)
        thefts = tracker.counters(0).thefts_experienced
        assert thefts > 0
        # Core 0 re-touches its stolen lines (evict them from L1/L2 first by
        # invalidating private copies so the LLC miss is visible).
        for i in range(llc.assoc):
            block = (0x10000 + i * set_bytes) & ~(BLOCK - 1)
            h0.l1d.invalidate(block)
            h0.l2.invalidate(block)
            h0.load(0x400, 0x10000 + i * set_bytes, 1000)
        assert tracker.counters(0).interference_misses > 0


class TestOccupancy:
    def test_fraction_in_unit_range(self):
        hierarchy = make_hierarchy()
        for i in range(100):
            hierarchy.load(0x400, 0x10000 + i * BLOCK, 0)
        fraction = hierarchy.llc_occupancy_fraction()
        assert 0.0 < fraction <= 1.0
