"""The cache-only host's residency-only filter against an LRU ``Cache``.

``LruFilter`` stands in for an LRU cache that is filled after every miss
and never invalidated; it must answer every access exactly as that cache
does, whatever the geometry and whether the access is a read or a write.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, LruFilter

BLOCK = 64


@st.composite
def geometry_and_stream(draw):
    assoc = draw(st.integers(1, 16))
    n_sets = draw(st.sampled_from((1, 2, 4, 8, 16)))
    # Block numbers span a few times the capacity, so the stream mixes
    # hits, cold misses and capacity evictions.
    blocks = st.integers(0, 3 * assoc * n_sets)
    stream = draw(st.lists(st.tuples(blocks, st.booleans()), max_size=400))
    return assoc, n_sets, stream


@settings(max_examples=200, deadline=None)
@given(geometry_and_stream())
def test_filter_hits_exactly_where_an_lru_cache_hits(case):
    assoc, n_sets, stream = case
    size = assoc * n_sets * BLOCK
    reference = Cache("ref", size, assoc, BLOCK, policy="lru")
    lru_filter = LruFilter(size, assoc, BLOCK)
    for block, is_write in stream:
        address = block * BLOCK
        hit = reference.access(address, is_write, 0)
        if not hit:
            reference.fill(address, 0, dirty=is_write)
        assert lru_filter.access(address) == hit


def test_holds_the_last_assoc_distinct_blocks_of_a_set():
    lru_filter = LruFilter(2 * BLOCK, 2, BLOCK)  # one set, two ways
    assert [lru_filter.access(block * BLOCK) for block in (1, 2, 1, 3)] == [
        False, False, True, False]
    # 2 was least recently used when 3 arrived; 1 stayed.
    assert lru_filter.access(1 * BLOCK)
    assert not lru_filter.access(2 * BLOCK)


@pytest.mark.parametrize("size, assoc", [(4000, 4), (3 * 4 * BLOCK, 4)])
def test_rejects_geometries_a_cache_rejects(size, assoc):
    with pytest.raises(ValueError):
        Cache("ref", size, assoc, BLOCK)
    with pytest.raises(ValueError):
        LruFilter(size, assoc, BLOCK)
