"""Unit tests for the three LLC inclusion policies."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy, build_llc
from repro.config import scaled_config

BLOCK = 64


def hierarchy_with(inclusion: str) -> MemoryHierarchy:
    config = scaled_config().with_inclusion(inclusion)
    return MemoryHierarchy(config, 0, llc=build_llc(config), registry={})


class TestNonInclusive:
    def test_fill_lands_everywhere(self):
        hierarchy = hierarchy_with("non-inclusive")
        hierarchy.load(0x400, 0x10000, 0)
        block = 0x10000
        assert hierarchy.l1d.probe(block) >= 0
        assert hierarchy.l2.probe(block) >= 0
        assert hierarchy.llc.probe(block) >= 0

    def test_llc_eviction_leaves_private_copies(self):
        hierarchy = hierarchy_with("non-inclusive")
        hierarchy.load(0x400, 0x10000, 0)
        hierarchy.llc.invalidate(0x10000)
        assert hierarchy.l1d.probe(0x10000) >= 0
        assert hierarchy.l2.probe(0x10000) >= 0

    def test_clean_l2_victims_dropped(self):
        """A clean L2 eviction must not re-install into the LLC."""
        hierarchy = hierarchy_with("non-inclusive")
        hierarchy.load(0x400, 0x10000, 0)
        hierarchy.llc.invalidate(0x10000)
        before = hierarchy.llc.stats.writeback_fills
        # Force the (clean) block out of L2 by conflict fills.
        set_stride = BLOCK * hierarchy.l2.n_sets
        for i in range(1, hierarchy.l2.assoc + 2):
            hierarchy.l2.fill(0x10000 + i * set_stride, 0)
        assert hierarchy.llc.probe(0x10000) == -1
        assert hierarchy.llc.stats.writeback_fills == before

    def test_dirty_l2_victim_spills_into_llc(self):
        hierarchy = hierarchy_with("non-inclusive")
        hierarchy.store(0x400, 0x10000, 0)
        hierarchy.llc.invalidate(0x10000)
        # Evict the dirty line from both L1 and L2 via the hierarchy's own
        # eviction handler.
        info = hierarchy.l1d.invalidate(0x10000)
        assert info.dirty
        hierarchy.l2.mark_dirty(0x10000)
        evicted = hierarchy.l2.invalidate(0x10000)
        hierarchy._l2_eviction(evicted, 0)
        assert hierarchy.llc.probe(0x10000) >= 0
        assert hierarchy.llc.stats.writeback_fills >= 1


class TestInclusive:
    def test_llc_eviction_back_invalidates(self):
        hierarchy = hierarchy_with("inclusive")
        hierarchy.load(0x400, 0x10000, 0)
        assert hierarchy.l1d.probe(0x10000) >= 0
        # Force an LLC eviction of that block via conflict fills in its set.
        set_stride = BLOCK * hierarchy.llc.n_sets
        for i in range(1, hierarchy.llc.assoc + 1):
            hierarchy._llc_fill(0x10000 + i * set_stride, 0)
        assert hierarchy.llc.probe(0x10000) == -1
        assert hierarchy.l1d.probe(0x10000) == -1
        assert hierarchy.l2.probe(0x10000) == -1

    def test_back_invalidation_writes_dirty_private_data(self):
        hierarchy = hierarchy_with("inclusive")
        hierarchy.store(0x400, 0x10000, 0)
        writes_before = hierarchy.dram.stats.writes
        set_stride = BLOCK * hierarchy.llc.n_sets
        for i in range(1, hierarchy.llc.assoc + 1):
            hierarchy._llc_fill(0x10000 + i * set_stride, 0)
        assert hierarchy.l1d.probe(0x10000) == -1
        assert hierarchy.dram.stats.writes > writes_before


class TestExclusive:
    def test_demand_fill_bypasses_llc(self):
        hierarchy = hierarchy_with("exclusive")
        hierarchy.load(0x400, 0x10000, 0)
        assert hierarchy.l1d.probe(0x10000) >= 0
        assert hierarchy.l2.probe(0x10000) >= 0
        assert hierarchy.llc.probe(0x10000) == -1

    def test_l2_eviction_fills_llc(self):
        hierarchy = hierarchy_with("exclusive")
        hierarchy.load(0x400, 0x10000, 0)
        evicted = hierarchy.l2.invalidate(0x10000)
        hierarchy._l2_eviction(evicted, 0)
        assert hierarchy.llc.probe(0x10000) >= 0

    def test_llc_hit_moves_block_up_and_invalidates(self):
        hierarchy = hierarchy_with("exclusive")
        hierarchy.load(0x400, 0x10000, 0)
        # Push the block down: out of L1/L2 into the LLC.
        evicted = hierarchy.l2.invalidate(0x10000)
        hierarchy.l1d.invalidate(0x10000)
        hierarchy._l2_eviction(evicted, 0)
        assert hierarchy.llc.probe(0x10000) >= 0
        hierarchy.load(0x400, 0x10000, 100)
        assert hierarchy.llc.probe(0x10000) == -1  # moved up, exclusive again
        assert hierarchy.l1d.probe(0x10000) >= 0

    def test_dirty_state_travels_up_on_llc_hit(self):
        hierarchy = hierarchy_with("exclusive")
        hierarchy.store(0x400, 0x10000, 0)
        hierarchy.l1d.invalidate(0x10000)
        hierarchy.l2.mark_dirty(0x10000)
        evicted = hierarchy.l2.invalidate(0x10000)
        hierarchy._l2_eviction(evicted, 0)
        hierarchy.load(0x400, 0x10000, 100)
        assert hierarchy.l2.probe(0x10000) >= 0
        assert hierarchy.l2.invalidate(0x10000).dirty


class TestConfigValidation:
    def test_bad_inclusion_rejected(self):
        with pytest.raises(ValueError, match="inclusion"):
            scaled_config().with_inclusion("semi-inclusive")
