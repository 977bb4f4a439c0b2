"""Set-associative cache with owner tracking and reuse histograms.

This is the structural layer: tag lookup, fills, evictions, invalidations,
replacement-policy bookkeeping, per-set ownership. Block metadata lives in a
flat struct-of-arrays :class:`~repro.cache.state.CacheSetState`; the
*protocol* (which level fills when, inclusion behaviour, write-backs) lives
in :mod:`repro.cache.hierarchy`; the contention accounting lives in
:mod:`repro.core.counters`.
"""

from __future__ import annotations

import copy
from typing import List, NamedTuple, Optional

from repro.cache.replacement import POLICIES, make_policy
from repro.cache.state import BlockView, CacheSetState
from repro.util.bitops import fold_xor, ilog2


class EvictedBlock(NamedTuple):
    """What fell out of the cache on a fill or invalidation (read-only)."""

    tag: int
    dirty: bool
    owner: int
    prefetched: bool


#: ``_new_tuple(EvictedBlock, fields)`` skips the generated ``__new__`` frame.
_new_tuple = tuple.__new__


class CacheStats:
    """Per-cache access counters (demand and prefetch separated)."""

    __slots__ = (
        "accesses", "hits", "misses",
        "loads", "load_hits", "stores", "store_hits",
        "prefetch_fills", "prefetch_useful",
        "writebacks", "writeback_fills", "evictions", "invalidations",
    )

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.store_hits = 0
        self.prefetch_fills = 0
        self.prefetch_useful = 0
        self.writebacks = 0
        self.writeback_fills = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (misses / demand accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def snapshot(self) -> dict:
        """Plain-dict copy for sampling."""
        return {name: getattr(self, name) for name in self.__slots__}


class Cache:
    """One level of set-associative, write-back, write-allocate cache."""

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        block_size: int = 64,
        latency: int = 4,
        policy: str = "lru",
        policy_seed: int = 0,
        track_reuse: bool = False,
        hash_index: bool = False,
    ) -> None:
        if size % (assoc * block_size) != 0:
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*block ({assoc}x{block_size})"
            )
        self.name = name
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.latency = latency
        self.n_sets = size // (assoc * block_size)
        self._index_bits = ilog2(self.n_sets)  # power-of-two sets
        self._offset_bits = ilog2(block_size)
        self._set_mask = self.n_sets - 1
        # XOR-folded set indexing de-skews power-of-two strides (the index
        # hash real LLCs use); off by default to keep indexing transparent.
        self.hash_index = hash_index and self.n_sets > 1
        self.policy_name = policy
        # Registry capability metadata decides whether the policy's
        # constructor takes the seed (works for plugin policies too).
        if POLICIES.spec(policy).accepts_seed:
            self.policy = make_policy(policy, self.n_sets, self.assoc,
                                      seed=policy_seed)
        else:
            self.policy = make_policy(policy, self.n_sets, self.assoc)
        # Optional per-miss training hook (set-dueling policies like DRRIP).
        self._policy_miss_hook = getattr(self.policy, "record_miss", None)
        # Hot-path bound methods (the policy object is fixed for life).
        self._policy_on_hit = self.policy.on_hit
        self._policy_on_insert = self.policy.on_insert
        self._policy_hit_position = self.policy.hit_position
        self._policy_victim_valid = self.policy._victim_valid
        #: Optional per-owner way quotas (cache partitioning). When an owner
        #: at/above its quota fills, the victim is forced to be one of its
        #: own blocks. Owners without an entry are unconstrained.
        self.way_allocations: dict = {}
        #: Flat block metadata for every (set, way) slot.
        self.state = CacheSetState(self.n_sets, assoc)
        # Per-set tag map (block_addr -> way) mirroring only *valid* blocks;
        # turns lookups O(1) instead of an associativity-wide scan.
        self._tags: List[dict] = [dict() for _ in range(self.n_sets)]
        # Reusable eviction-order buffer for the quota-constrained walk.
        self._order_scratch: List[int] = [0] * assoc
        self.stats = CacheStats()
        #: Optional :class:`~repro.obs.events.EventTrace` (observability).
        #: ``None`` keeps every emission site a single load+branch on the
        #: fill/invalidate paths; set via ``EventTrace.attach(cache)``.
        self._events = None
        self.track_reuse = track_reuse
        #: Hit-position histogram (paper Fig 5): index = position in the
        #: replacement stack counted from the protected end (0 = MRU-most).
        self.reuse_histogram: List[int] = [0] * assoc if track_reuse else []
        #: Same histogram split per owner — in shared-LLC runs each
        #: workload's reuse behaviour must be separable (the paper's
        #: histograms are per-workload).
        self.reuse_by_owner: dict = {}

    # -- addressing ---------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        block = block_addr >> self._offset_bits
        if self.hash_index:
            return fold_xor(block, self._index_bits)
        return block & self._set_mask

    def block_address(self, address: int) -> int:
        return address & ~(self.block_size - 1)

    def block(self, set_index: int, way: int) -> BlockView:
        """Read-only snapshot of one slot (tests, examples, debugging)."""
        return self.state.view(set_index, way)

    @property
    def sets(self) -> List[List[BlockView]]:
        """Read-only snapshot of every slot as nested ``[set][way]`` views.

        Built fresh on each read from the flat state arrays — convenient for
        tests, examples and debugging, far too slow for simulation loops
        (those index :attr:`state` directly).
        """
        view = self.state.view
        return [[view(set_index, way) for way in range(self.assoc)]
                for set_index in range(self.n_sets)]

    # -- lookup / access ------------------------------------------------------
    def probe(self, block_addr: int) -> int:
        """Way holding ``block_addr`` or -1; no state change."""
        return self._tags[self.set_index(block_addr)].get(block_addr, -1)

    def access(self, block_addr: int, is_write: bool, owner: int) -> bool:
        """Demand access; updates stats and replacement state. True on hit."""
        block = block_addr >> self._offset_bits
        if self.hash_index:
            set_index = fold_xor(block, self._index_bits)
        else:
            set_index = block & self._set_mask
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        way = self._tags[set_index].get(block_addr, -1)
        if way >= 0:
            state = self.state
            index = set_index * self.assoc + way
            stats.hits += 1
            if is_write:
                stats.store_hits += 1
                state.dirty[index] = 1
            else:
                stats.load_hits += 1
            if state.prefetched[index]:
                state.prefetched[index] = 0
                stats.prefetch_useful += 1
            if self.track_reuse:
                # Replacement-stack position of the hit (0 = protected
                # end), recorded inline: this runs on every tracked hit.
                position = self._policy_hit_position(set_index, way)
                self.reuse_histogram[position] += 1
                histogram = self.reuse_by_owner.get(owner)
                if histogram is None:
                    histogram = [0] * self.assoc
                    self.reuse_by_owner[owner] = histogram
                histogram[position] += 1
            self._policy_on_hit(set_index, way)
            return True
        stats.misses += 1
        if self._policy_miss_hook is not None:
            self._policy_miss_hook(set_index)
        return False

    def owner_reuse_histogram(self, owner: int) -> List[int]:
        """One owner's hit-position histogram (zeros when it never hit)."""
        return list(self.reuse_by_owner.get(owner, [0] * self.assoc))

    # -- fills / evictions ---------------------------------------------------
    def fill(self, block_addr: int, owner: int, dirty: bool = False,
             prefetched: bool = False, is_writeback_fill: bool = False,
             max_owner_ways: Optional[int] = None) -> Optional[EvictedBlock]:
        """Install ``block_addr``; returns the evicted block, if any was valid.

        If the block is already present this refreshes its state in place
        (write-back updates take this path) and evicts nothing.

        ``max_owner_ways`` models an Intel RDT-style allocation cap: when the
        filling owner already holds that many ways of the set, the victim is
        forced to be one of the owner's own blocks instead of the global
        replacement choice.
        """
        block = block_addr >> self._offset_bits
        if self.hash_index:
            set_index = fold_xor(block, self._index_bits)
        else:
            set_index = block & self._set_mask
        state = self.state
        tags = self._tags[set_index]
        stats = self.stats
        existing = tags.get(block_addr, -1)
        if existing >= 0:
            if dirty:
                state.dirty[set_index * self.assoc + existing] = 1
            if is_writeback_fill:
                stats.writeback_fills += 1
            return None
        if max_owner_ways is None and not self.way_allocations:
            # Unconstrained fill (the common case): the tag map holds exactly
            # the set's valid blocks, so a full set goes straight to the
            # policy; otherwise the C-speed byte scan finds an invalid way.
            if len(tags) == self.assoc:
                way = self._policy_victim_valid(set_index, state)
            else:
                base = set_index * self.assoc
                way = state.valid.find(0, base, base + self.assoc) - base
        else:
            way = self._choose_victim(set_index, owner, max_owner_ways)
        index = set_index * self.assoc + way
        evicted: Optional[EvictedBlock] = None
        # state.clear + state.install, inlined (this is the hottest write
        # path): replacing a valid block leaves total_valid unchanged and
        # only moves per-owner counters when the owner actually changes.
        if state.valid[index]:
            old_tag = state.tags[index]
            old_dirty = state.dirty[index]
            old_owner = state.owners[index]
            evicted = _new_tuple(EvictedBlock, (
                old_tag, old_dirty != 0, old_owner,
                state.prefetched[index] != 0))
            del tags[old_tag]
            stats.evictions += 1
            if old_dirty:
                stats.writebacks += 1
            if old_owner != owner:
                counts = state.owner_counts
                counts[old_owner] -= 1
                counts[owner] = counts.get(owner, 0) + 1
                state.owners[index] = owner
        else:
            state.valid[index] = 1
            state.total_valid += 1
            counts = state.owner_counts
            counts[owner] = counts.get(owner, 0) + 1
            state.owners[index] = owner
        state.tags[index] = block_addr
        state.dirty[index] = 1 if dirty else 0
        state.prefetched[index] = 1 if prefetched else 0
        tags[block_addr] = way
        if prefetched:
            stats.prefetch_fills += 1
        if is_writeback_fill:
            stats.writeback_fills += 1
        self._policy_on_insert(set_index, way)
        events = self._events
        if events is not None:
            events.record("fill", set_index, way, owner,
                          "prefetch" if prefetched else
                          "writeback" if is_writeback_fill else "demand",
                          block_addr)
            if evicted is not None:
                events.record(
                    "evict", set_index, way, evicted.owner,
                    "replace" if evicted.owner == owner else "theft",
                    evicted.tag)
                if evicted.dirty:
                    events.record("writeback", set_index, way, evicted.owner,
                                  "evict", evicted.tag)
        return evicted

    def _choose_victim(self, set_index: int, owner: int,
                       max_owner_ways: Optional[int]) -> int:
        """Victim way, honouring an optional per-owner allocation cap.

        The cap is the tighter of the per-call ``max_owner_ways`` (RDT-style
        global cap) and this owner's entry in :attr:`way_allocations`
        (partitioning quota).
        """
        state = self.state
        if self.way_allocations:
            quota = self.way_allocations.get(owner)
            if quota is not None:
                max_owner_ways = (quota if max_owner_ways is None
                                  else min(quota, max_owner_ways))
        if max_owner_ways is not None:
            if state.owner_ways_in_set(set_index, owner) >= max_owner_ways:
                base = set_index * self.assoc
                valid = state.valid
                owners = state.owners
                for way in self.policy.eviction_order_into(
                        set_index, self._order_scratch):
                    index = base + way
                    if valid[index] and owners[index] == owner:
                        return way
        # policy.victim, inlined: prefer an invalid way (C-speed byte scan),
        # else ask the policy to pick among the valid ones.
        base = set_index * self.assoc
        way = state.valid.find(0, base, base + self.assoc)
        if way >= 0:
            return way - base
        return self.policy._victim_valid(set_index, state)

    def invalidate(self, block_addr: int) -> Optional[EvictedBlock]:
        """Drop ``block_addr`` if present; returns its state for write-back."""
        set_index = self.set_index(block_addr)
        way = self._tags[set_index].pop(block_addr, -1)
        if way < 0:
            return None
        state = self.state
        index = set_index * self.assoc + way
        info = _new_tuple(EvictedBlock, (
            state.tags[index], state.dirty[index] != 0, state.owners[index],
            state.prefetched[index] != 0))
        state.clear(index)
        self.stats.invalidations += 1
        if self._events is not None:
            self._events.record("invalidate", set_index, way, info.owner,
                                "protocol", info.tag)
        return info

    def mark_dirty(self, block_addr: int) -> bool:
        """Set the dirty bit on a resident block (write-back arrival)."""
        block = block_addr >> self._offset_bits
        if self.hash_index:
            set_index = fold_xor(block, self._index_bits)
        else:
            set_index = block & self._set_mask
        way = self._tags[set_index].get(block_addr, -1)
        if way < 0:
            return False
        self.state.dirty[set_index * self.assoc + way] = 1
        return True

    # -- occupancy ------------------------------------------------------------
    def occupancy(self, owner: Optional[int] = None) -> int:
        """Number of valid blocks (optionally for one owner) — O(1), read
        from the state layer's incrementally-maintained counters."""
        return self.state.occupancy(owner)

    # -- invariants -------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the first broken structural invariant.

        Checks that each set's tag map holds exactly its valid blocks, that
        the incremental occupancy counters match a full scan, and that the
        policy's eviction order is a permutation of the ways. The order is
        read from a copy of the policy, so a policy whose read-out draws
        random numbers keeps its stream. O(n_sets x assoc): for tests and
        debugging, not simulation loops.
        """
        state = self.state
        assoc = self.assoc
        tags = state.tags
        valid = state.valid
        for set_index, tag_map in enumerate(self._tags):
            base = set_index * assoc
            expected = {tags[base + way]: way for way in range(assoc)
                        if valid[base + way]}
            if tag_map != expected:
                raise AssertionError(
                    f"{self.name}: set {set_index} tag map {tag_map} != "
                    f"valid tags {expected}")
        if state.total_valid != state.scan_occupancy():
            raise AssertionError(
                f"{self.name}: total_valid {state.total_valid} != "
                f"scanned {state.scan_occupancy()}")
        owners = set(state.owner_counts)
        owners.update(state.owners[index] for index, bit in enumerate(valid)
                      if bit)
        for owner in sorted(owners):
            counted = state.owner_counts.get(owner, 0)
            scanned = state.scan_occupancy(owner)
            if counted != scanned:
                raise AssertionError(
                    f"{self.name}: owner {owner} count {counted} != "
                    f"scanned {scanned}")
        policy = copy.deepcopy(self.policy)
        ways = list(range(assoc))
        for set_index in range(self.n_sets):
            order = policy.eviction_order(set_index)
            if sorted(order) != ways:
                raise AssertionError(
                    f"{self.name}: set {set_index} eviction order {order} "
                    f"is not a permutation of the ways")

    @property
    def capacity_blocks(self) -> int:
        return self.n_sets * self.assoc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.size // 1024}KB, {self.assoc}-way, "
            f"{self.policy_name})"
        )


class LruLevel:
    """A private LRU cache level: one recency-ordered dict per set.

    Each set maps ``block -> dirty | prefetched << 1`` in insertion order,
    least recently used first, so a hit or a new block moves to the end
    and a full set evicts its first key. It answers every ``access``,
    ``fill``, ``probe``, ``mark_dirty`` and ``invalidate`` exactly as
    ``Cache(policy="lru")`` does, with the same :class:`CacheStats`:

    * in a full set ``Cache`` evicts the tail of its recency stack, the
      least recently hit or filled valid block, which is the dict's first
      key;
    * a fill into a set that is not full takes the lowest invalid way,
      which only way numbers show, and a private level has no reader of
      way numbers: no events, no reuse histogram, no PInTE, no partition
      quota. :meth:`probe` therefore answers 0 or -1.

    :class:`~repro.cache.hierarchy.MemoryHierarchy` builds L1I, L1D and L2
    this way whenever their configured policy is ``"lru"``. Every block
    belongs to the level's core, ``owner``; the ``owner`` argument of
    :meth:`access` and :meth:`fill` is there so the walk calls this level
    and a :class:`Cache` alike. :class:`LruFilter` is the same structure
    with only residency kept.
    """

    def __init__(self, name: str, size: int, assoc: int,
                 block_size: int = 64, latency: int = 4,
                 owner: int = 0) -> None:
        if size % (assoc * block_size) != 0:
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*block "
                f"({assoc}x{block_size})")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.latency = latency
        self.owner = owner
        self.n_sets = size // (assoc * block_size)
        self._offset_bits = ilog2(block_size)
        self._set_mask = (1 << ilog2(self.n_sets)) - 1  # power-of-two sets
        self._sets: List[dict] = [dict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def probe(self, block_addr: int) -> int:
        """0 if ``block_addr`` is resident, else -1; no state change."""
        blocks = self._sets[(block_addr >> self._offset_bits)
                            & self._set_mask]
        return 0 if block_addr in blocks else -1

    def access(self, block_addr: int, is_write: bool, owner: int) -> bool:
        """Demand access; updates stats and recency. True on hit."""
        blocks = self._sets[(block_addr >> self._offset_bits)
                            & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        flags = blocks.pop(block_addr, -1)
        if flags < 0:
            stats.misses += 1
            return False
        stats.hits += 1
        if is_write:
            stats.store_hits += 1
            flags |= 1
        else:
            stats.load_hits += 1
        if flags & 2:
            flags &= 1
            stats.prefetch_useful += 1
        blocks[block_addr] = flags
        return True

    def fill(self, block_addr: int, owner: int, dirty: bool = False,
             prefetched: bool = False,
             is_writeback_fill: bool = False) -> Optional[EvictedBlock]:
        """Install ``block_addr`` as MRU; returns the evicted block, if any.

        A resident block only gains ``dirty`` and keeps its place, as in
        :meth:`Cache.fill`.
        """
        blocks = self._sets[(block_addr >> self._offset_bits)
                            & self._set_mask]
        stats = self.stats
        flags = blocks.get(block_addr, -1)
        if flags >= 0:
            if dirty:
                blocks[block_addr] = flags | 1
            if is_writeback_fill:
                stats.writeback_fills += 1
            return None
        evicted: Optional[EvictedBlock] = None
        if len(blocks) == self.assoc:
            tag = next(iter(blocks))
            flags = blocks.pop(tag)
            evicted = _new_tuple(EvictedBlock, (
                tag, flags & 1 != 0, self.owner, flags > 1))
            stats.evictions += 1
            if flags & 1:
                stats.writebacks += 1
        if prefetched:
            blocks[block_addr] = 3 if dirty else 2
            stats.prefetch_fills += 1
        else:
            blocks[block_addr] = 1 if dirty else 0
        if is_writeback_fill:
            stats.writeback_fills += 1
        return evicted

    def mark_dirty(self, block_addr: int) -> bool:
        """Set the dirty bit on a resident block (write-back arrival)."""
        blocks = self._sets[(block_addr >> self._offset_bits)
                            & self._set_mask]
        flags = blocks.get(block_addr, -1)
        if flags < 0:
            return False
        blocks[block_addr] = flags | 1
        return True

    def invalidate(self, block_addr: int) -> Optional[EvictedBlock]:
        """Drop ``block_addr`` if present; returns its state for write-back."""
        flags = self._sets[(block_addr >> self._offset_bits)
                           & self._set_mask].pop(block_addr, -1)
        if flags < 0:
            return None
        self.stats.invalidations += 1
        return _new_tuple(EvictedBlock, (
            block_addr, flags & 1 != 0, self.owner, flags > 1))


class LruFilter:
    """Residency-only LRU filter: which blocks an LRU :class:`Cache` holds.

    The cache-only host puts an L2-sized filter in front of the LLC and
    reads only hit or miss from it. An LRU cache that is filled after every
    miss and never invalidated holds exactly the last ``assoc`` distinct
    blocks of each set, so one insertion-ordered dict per set (LRU first,
    MRU last) answers every access exactly as that cache would, without
    dirty bits, owners, statistics or a replacement policy. It is
    :class:`LruLevel`, the private LRU level of the timing hosts'
    :class:`~repro.cache.hierarchy.MemoryHierarchy`, with only residency
    kept.
    """

    def __init__(self, size: int, assoc: int, block_size: int = 64) -> None:
        if size % (assoc * block_size) != 0:
            raise ValueError(
                f"filter: size {size} not divisible by assoc*block "
                f"({assoc}x{block_size})")
        self.assoc = assoc
        self.n_sets = size // (assoc * block_size)
        self._offset_bits = ilog2(block_size)
        self._set_mask = (1 << ilog2(self.n_sets)) - 1  # power-of-two sets
        self._sets: List[dict] = [dict() for _ in range(self.n_sets)]

    def access(self, block_addr: int) -> bool:
        """True on a hit. Either way ``block_addr`` ends up MRU; a miss
        drops the set's LRU block once the set holds more than ``assoc``."""
        blocks = self._sets[(block_addr >> self._offset_bits)
                            & self._set_mask]
        hit = blocks.pop(block_addr, False)
        blocks[block_addr] = True
        if not hit and len(blocks) > self.assoc:
            del blocks[next(iter(blocks))]
        return hit
