"""The timing hosts' private LRU level against an LRU ``Cache``.

``LruLevel`` stands in for ``Cache(policy="lru")`` at L1I, L1D and L2; it
must answer every operation the hierarchy makes exactly as that cache
does, whatever the geometry: hit or miss, the evicted block, residency,
and every ``CacheStats`` counter.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheStats, LruLevel
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import CacheLevelConfig, scaled_config

BLOCK = 64
OWNER = 3


@st.composite
def geometry_and_ops(draw):
    assoc = draw(st.integers(1, 16))
    n_sets = draw(st.sampled_from((1, 2, 4, 8, 16)))
    # Block numbers span a few times the capacity, so the stream mixes
    # hits, cold misses, capacity evictions and refills of resident blocks.
    blocks = st.integers(0, 3 * assoc * n_sets)
    op = st.one_of(
        st.tuples(st.just("access"), blocks, st.booleans()),
        st.tuples(st.just("fill"), blocks, st.booleans(), st.booleans(),
                  st.booleans()),
        st.tuples(st.just("mark_dirty"), blocks),
        st.tuples(st.just("probe"), blocks),
        st.tuples(st.just("invalidate"), blocks),
    )
    return assoc, n_sets, draw(st.lists(op, max_size=400))


def apply(level, op):
    """One operation's observable outcome on ``level``."""
    name, block, *flags = op
    address = block * BLOCK
    if name == "access":
        return level.access(address, flags[0], OWNER)
    if name == "fill":
        dirty, prefetched, writeback = flags
        return level.fill(address, OWNER, dirty=dirty, prefetched=prefetched,
                          is_writeback_fill=writeback)
    if name == "probe":
        return level.probe(address) >= 0
    return getattr(level, name)(address)


@settings(max_examples=200, deadline=None)
@given(geometry_and_ops())
def test_level_answers_every_operation_as_an_lru_cache(case):
    assoc, n_sets, ops = case
    size = assoc * n_sets * BLOCK
    reference = Cache("ref", size, assoc, BLOCK, policy="lru")
    level = LruLevel("level", size, assoc, BLOCK, owner=OWNER)
    for op in ops:
        assert apply(level, op) == apply(reference, op), op
        assert level.stats.snapshot() == reference.stats.snapshot(), op


def test_evicts_the_least_recently_hit_or_filled_block():
    level = LruLevel("L1", 2 * BLOCK, 2, BLOCK, owner=OWNER)  # one set
    level.fill(1 * BLOCK, OWNER)
    level.fill(2 * BLOCK, OWNER, dirty=True)
    assert level.access(1 * BLOCK, False, OWNER)
    # 2 was filled after 1 but 1 was hit since: 2 goes, with its dirty bit.
    evicted = level.fill(3 * BLOCK, OWNER, prefetched=True)
    assert evicted == (2 * BLOCK, True, OWNER, False)
    # A refill of a resident block neither moves it nor clears its flags.
    assert level.fill(1 * BLOCK, OWNER) is None
    assert level.invalidate(3 * BLOCK) == (3 * BLOCK, False, OWNER, True)
    assert level.stats.evictions == 1 and level.stats.writebacks == 1


@pytest.mark.parametrize("size, assoc", [(4000, 4), (3 * 4 * BLOCK, 4)])
def test_rejects_geometries_a_cache_rejects(size, assoc):
    with pytest.raises(ValueError):
        Cache("ref", size, assoc, BLOCK)
    with pytest.raises(ValueError):
        LruLevel("level", size, assoc, BLOCK)


def test_hierarchy_picks_the_level_class_from_the_configured_policy():
    config = scaled_config()
    hierarchy = MemoryHierarchy(config, owner=OWNER)
    for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        assert isinstance(level, LruLevel) and level.owner == OWNER
        assert isinstance(level.stats, CacheStats)
    nmru = CacheLevelConfig(config.l2.size, config.l2.assoc,
                            config.l2.latency, policy="nmru")
    hierarchy = MemoryHierarchy(replace(config, l2=nmru), owner=OWNER)
    assert isinstance(hierarchy.l1d, LruLevel)
    assert isinstance(hierarchy.l2, Cache)
    assert hierarchy.l2.policy_name == "nmru"
