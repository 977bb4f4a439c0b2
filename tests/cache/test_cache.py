"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.cache import Cache

BLOCK = 64


def make_cache(size=4096, assoc=4, policy="lru", **kw):
    return Cache("T", size, assoc, BLOCK, latency=4, policy=policy, **kw)


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=4096, assoc=4)
        assert cache.n_sets == 16
        assert cache.capacity_blocks == 64

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="not divisible"):
            Cache("T", 4000, 4, BLOCK)

    def test_set_index_wraps(self):
        cache = make_cache(size=4096, assoc=4)  # 16 sets
        assert cache.set_index(0) == cache.set_index(16 * BLOCK)

    def test_block_address(self):
        cache = make_cache()
        assert cache.block_address(0x1234) == 0x1200


class TestAccess:
    def test_cold_miss(self):
        cache = make_cache()
        assert cache.access(0x1000, False, 0) is False
        assert cache.stats.misses == 1

    def test_hit_after_fill(self):
        cache = make_cache()
        cache.access(0x1000, False, 0)
        cache.fill(0x1000, 0)
        assert cache.access(0x1000, False, 0) is True
        assert cache.stats.hits == 1

    def test_write_hit_sets_dirty(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        cache.access(0x1000, True, 0)
        way = cache.probe(0x1000)
        assert cache.sets[cache.set_index(0x1000)][way].dirty

    def test_load_store_counters(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        cache.access(0x1000, False, 0)
        cache.access(0x1000, True, 0)
        assert cache.stats.loads == 1
        assert cache.stats.stores == 1
        assert cache.stats.load_hits == 1
        assert cache.stats.store_hits == 1

    def test_miss_rate(self):
        cache = make_cache()
        cache.access(0x1000, False, 0)  # miss
        cache.fill(0x1000, 0)
        cache.access(0x1000, False, 0)  # hit
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_miss_rate_empty(self):
        assert make_cache().stats.miss_rate == 0.0


class TestFill:
    def test_fill_into_invalid_way_evicts_nothing(self):
        cache = make_cache()
        assert cache.fill(0x1000, 0) is None

    def test_fill_full_set_evicts(self):
        cache = make_cache(size=4 * BLOCK * 1, assoc=4)  # 1 set
        for i in range(4):
            cache.fill(i * BLOCK, 0)
        evicted = cache.fill(4 * BLOCK, 0)
        assert evicted is not None
        assert cache.stats.evictions == 1

    def test_lru_victim_is_oldest(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)  # 1 set
        for i in range(4):
            cache.fill(i * BLOCK, 0)
        evicted = cache.fill(4 * BLOCK, 0)
        assert evicted.tag == 0  # first-filled, never reused

    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)
        cache.fill(0, 0, dirty=True)
        for i in range(1, 5):
            cache.fill(i * BLOCK, 0)
        assert cache.stats.writebacks == 1

    def test_refill_existing_merges_dirty(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        assert cache.fill(0x1000, 0, dirty=True) is None
        way = cache.probe(0x1000)
        assert cache.sets[cache.set_index(0x1000)][way].dirty

    def test_owner_recorded(self):
        cache = make_cache()
        cache.fill(0x1000, owner=3)
        way = cache.probe(0x1000)
        assert cache.sets[cache.set_index(0x1000)][way].owner == 3

    def test_eviction_reports_owner(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)
        for i in range(4):
            cache.fill(i * BLOCK, owner=7)
        evicted = cache.fill(4 * BLOCK, owner=1)
        assert evicted.owner == 7


class TestAllocationCap:
    def test_cap_forces_self_eviction(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)
        for i in range(2):
            cache.fill(i * BLOCK, owner=0)
        cache.fill(2 * BLOCK, owner=1)
        # owner 0 at its 2-way cap: its own block must be the victim even
        # though owner 1's block is older in LRU order.
        cache.access(2 * BLOCK, False, 1)  # make owner-1 block MRU anyway
        evicted = cache.fill(3 * BLOCK, owner=0, max_owner_ways=2)
        assert evicted.owner == 0

    def test_under_cap_uses_global_victim(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)
        for i in range(4):
            cache.fill(i * BLOCK, owner=1)
        evicted = cache.fill(4 * BLOCK, owner=0, max_owner_ways=2)
        assert evicted.owner == 1


class TestInvalidate:
    def test_invalidate_removes(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        info = cache.invalidate(0x1000)
        assert info is not None
        assert cache.probe(0x1000) == -1
        assert cache.stats.invalidations == 1

    def test_invalidate_absent_returns_none(self):
        cache = make_cache()
        assert cache.invalidate(0x1000) is None

    def test_invalidate_way(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        way = cache.probe(0x1000)
        info = cache.invalidate_way(cache.set_index(0x1000), way)
        assert info.tag == 0x1000
        assert cache.probe(0x1000) == -1

    def test_invalidate_way_invalid_block(self):
        cache = make_cache()
        assert cache.invalidate_way(0, 0) is None

    def test_mark_dirty(self):
        cache = make_cache()
        cache.fill(0x1000, 0)
        assert cache.mark_dirty(0x1000) is True
        assert cache.mark_dirty(0x2000) is False

    def test_fill_after_invalidate_prefers_invalid_way(self):
        cache = make_cache(size=4 * BLOCK, assoc=4)
        for i in range(4):
            cache.fill(i * BLOCK, 0)
        cache.invalidate(1 * BLOCK)
        evicted = cache.fill(5 * BLOCK, 0)
        assert evicted is None  # used the invalidated way


class TestOccupancy:
    def test_total(self):
        cache = make_cache()
        for i in range(5):
            cache.fill(i * BLOCK, owner=i % 2)
        assert cache.occupancy() == 5

    def test_per_owner(self):
        cache = make_cache()
        for i in range(5):
            cache.fill(i * BLOCK, owner=i % 2)
        assert cache.occupancy(owner=0) == 3
        assert cache.occupancy(owner=1) == 2


class TestReuseHistogram:
    def test_mru_hit_is_top_position(self):
        cache = make_cache(size=4 * BLOCK, assoc=4, track_reuse=True)
        cache.fill(0, 0)
        cache.access(0, False, 0)
        assert cache.reuse_histogram[0] == 1

    def test_lru_hit_is_bottom_position(self):
        cache = make_cache(size=4 * BLOCK, assoc=4, track_reuse=True)
        for i in range(4):
            cache.fill(i * BLOCK, 0)
        cache.access(0, False, 0)  # block 0 is now at the LRU end
        assert cache.reuse_histogram[3] == 1

    def test_untracked_cache_has_no_histogram(self):
        cache = make_cache(track_reuse=False)
        cache.fill(0, 0)
        cache.access(0, False, 0)
        assert cache.reuse_histogram == []


class TestTagMapConsistency:
    def test_probe_matches_scan(self):
        """The O(1) tag map must agree with a brute-force scan."""
        cache = make_cache(size=8 * BLOCK, assoc=4)
        addresses = [i * BLOCK for i in range(20)]
        for rounds in range(3):
            for address in addresses:
                if not cache.access(address, rounds % 2 == 0, 0):
                    cache.fill(address, 0)
                if address % (3 * BLOCK) == 0:
                    cache.invalidate(address)
        for set_index, blocks in enumerate(cache.sets):
            for way, block in enumerate(blocks):
                if block.valid:
                    assert cache.probe(block.tag) == way


class TestCheckInvariants:
    def churned(self, policy="lru"):
        cache = make_cache(size=8 * BLOCK, assoc=4, policy=policy)
        for rounds in range(3):
            for index in range(20):
                address = index * BLOCK
                if not cache.access(address, rounds % 2 == 0, index % 3):
                    cache.fill(address, index % 3)
                if index % 3 == 0:
                    cache.invalidate(address)
        return cache

    @pytest.mark.parametrize("policy", ["lru", "plru", "nmru", "rrip",
                                        "drrip", "random"])
    def test_holds_after_normal_operation(self, policy):
        self.churned(policy).check_invariants()

    def test_stale_tag_map_entry(self):
        cache = self.churned()
        cache._tags[0][12345 * BLOCK] = 0
        with pytest.raises(AssertionError, match="tag map"):
            cache.check_invariants()

    def test_total_valid_drift(self):
        cache = self.churned()
        cache.state.total_valid += 1
        with pytest.raises(AssertionError, match="total_valid"):
            cache.check_invariants()

    def test_owner_count_drift(self):
        cache = self.churned()
        cache.state.owner_counts[1] += 1
        with pytest.raises(AssertionError, match="owner 1 count"):
            cache.check_invariants()

    def test_eviction_order_not_a_permutation(self):
        cache = self.churned()
        stacks = cache.policy._stacks
        stacks[1][0] = stacks[1][1]  # a duplicated way
        with pytest.raises(AssertionError, match="not a permutation"):
            cache.check_invariants()

    def test_leaves_a_random_policy_stream_alone(self):
        checked, unchecked = self.churned("random"), self.churned("random")
        checked.check_invariants()
        assert checked.policy._rng.draws == unchecked.policy._rng.draws
        assert checked.policy.eviction_order(0) == (
            unchecked.policy.eviction_order(0))
