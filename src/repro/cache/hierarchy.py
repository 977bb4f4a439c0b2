"""Memory hierarchy protocol: L1I/L1D/L2 private, LLC + DRAM shared.

One :class:`MemoryHierarchy` per core. Cores share the LLC, the DRAM and the
:class:`~repro.core.counters.ContentionTracker`; in 2nd-Trace mode two
hierarchies contend naturally, in PInTE mode a single hierarchy carries a
:class:`~repro.core.pinte.PInTE` engine that fires after every LLC demand
access. Everything a private-cache access does to that shared side goes
through the :class:`SharedPort` a hierarchy extends, which is also all a
replayed core (:mod:`repro.sim.private`) needs.

Inclusion (paper Section III-C b):

* ``non-inclusive`` (the paper's default): fills propagate to every level on
  the way in; clean L2 victims are dropped, dirty ones write back into the
  LLC; LLC evictions leave private copies alone.
* ``inclusive``: like non-inclusive on the way in, but an LLC eviction
  back-invalidates the block in every private cache (dirty private data goes
  to DRAM).
* ``exclusive``: LLC is a victim cache — demand fills bypass it, every L2
  eviction inserts into it, and an LLC hit moves the block up and
  invalidates the LLC copy.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.cache.cache import Cache, CacheStats, EvictedBlock, LruLevel
from repro.owners import SYSTEM_OWNER
from repro.config import CacheLevelConfig, MachineConfig
from repro.core.counters import ContentionTracker
from repro.dram import Dram
from repro.prefetch import Prefetcher, make_prefetcher


#: A private level: an :class:`LruLevel` for the ``"lru"`` policy, else a
#: :class:`Cache` running the configured policy.
PrivateLevel = Union[LruLevel, Cache]


def build_llc(config: MachineConfig, seed: int = 0) -> Cache:
    """Construct the shared LLC for a machine config (reuse tracking on)."""
    return Cache(
        name="LLC",
        size=config.llc.size,
        assoc=config.llc.assoc,
        block_size=config.block_size,
        latency=config.llc.latency,
        policy=config.llc.policy,
        policy_seed=seed,
        track_reuse=True,
        hash_index=config.llc.hash_index,
    )


class SharedPort:
    """One core's port onto the shared side: LLC, DRAM, tracker, PInTE.

    The *shared stage* of the demand walk. Every LLC-side effect of a
    private-cache access goes through :meth:`llc_read` (an L2 demand
    miss), :meth:`llc_writeback` (a dirty L2 victim) and
    :meth:`llc_prefetch` (a prefetch that missed the private levels), plus
    the engine's ``pinte.on_llc_access`` after each demand read. A
    :class:`MemoryHierarchy` calls them from its lockstep walk; a replayed
    core (:mod:`repro.sim.private`) calls them from recorded private-stage
    events, with no private caches built at all.
    """

    def __init__(
        self,
        config: MachineConfig,
        owner: int,
        llc: Optional[Cache] = None,
        dram: Optional[Dram] = None,
        tracker: Optional[ContentionTracker] = None,
        registry: Optional[Dict[int, "SharedPort"]] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.owner = owner
        self.block_size = config.block_size
        self.inclusion = config.inclusion
        self.llc = llc if llc is not None else build_llc(config, seed)
        self.llc_latency = self.llc.latency
        self.dram = dram if dram is not None else Dram(config.dram)
        self.tracker = tracker if tracker is not None else ContentionTracker()
        #: owner -> port map shared by all cores on one LLC; used for
        #: inclusive back-invalidation.
        self.registry = registry if registry is not None else {}
        self.registry[owner] = self
        self.pinte = None  # wired by attach_pinte
        #: Optional observer called with (owner, block, hit) on every LLC
        #: demand access — used by cache-partitioning utility monitors.
        self.llc_access_hook = None

    def attach_pinte(self, pinte, per_access: bool = True) -> None:
        """Bind a PInTE engine (its write-backs route to this DRAM).

        ``per_access=False`` wires the write-back/back-invalidate plumbing
        without installing the per-LLC-access trigger — used by the periodic
        (independent-module) trigger mode, which drives the engine from the
        core clock instead.
        """
        if per_access:
            self.pinte = pinte
        pinte.writeback = lambda addr, cycle: self.dram.access(addr, cycle, is_write=True)
        if self.inclusion == "inclusive":
            pinte.back_invalidate = lambda addr, cycle: self._back_invalidate_all(addr, cycle)

    def reset_stats(self) -> None:
        """Warm-up boundary: clear the LLC statistics and this owner's reuse."""
        llc = self.llc
        llc.stats = CacheStats()
        llc.reuse_histogram = [0] * llc.assoc
        llc.reuse_by_owner.pop(self.owner, None)

    # ------------------------------------------------------------ shared stage
    def llc_read(self, block: int, cycle: int) -> int:
        """LLC demand read issued at ``cycle``; returns the DRAM latency
        it adds (0 on a hit). A miss fills the LLC unless it is exclusive."""
        owner = self.owner
        llc = self.llc
        hit = llc.access(block, False, owner)
        self.tracker.record_access(owner, block, hit)
        if self.llc_access_hook is not None:
            self.llc_access_hook(owner, block, hit)
        if hit:
            return 0
        extra = self.dram.access(block, cycle, is_write=False)
        if self.inclusion != "exclusive":
            self._llc_fill(block, cycle + extra)
        return extra

    def llc_writeback(self, block: int, cycle: int) -> None:
        """A dirty L2 victim arrives at a non-exclusive LLC."""
        # The L2 spill traffic the paper's Fig 6b root-causes.
        if self.llc.mark_dirty(block):
            self.llc.stats.writeback_fills += 1
        else:
            self._llc_fill(block, cycle, dirty=True, writeback=True)

    def llc_prefetch(self, block: int, cycle: int) -> None:
        """A prefetch that missed the private levels: fetch it from DRAM
        (filling the LLC) unless the LLC already holds it."""
        if self.llc.probe(block) >= 0:
            return
        self.dram.access(block, cycle, is_write=False)
        if self.inclusion != "exclusive":
            self._llc_fill(block, cycle, prefetched=True)

    def _llc_fill(self, block: int, cycle: int, dirty: bool = False,
                  prefetched: bool = False, writeback: bool = False) -> None:
        evicted = self.llc.fill(
            block, self.owner, dirty=dirty, prefetched=prefetched,
            is_writeback_fill=writeback,
            max_owner_ways=self.config.llc_way_allocation,
        )
        self.tracker.record_refill(self.owner, block)
        if evicted is None:
            return
        if evicted.owner not in (self.owner, SYSTEM_OWNER):
            # Natural inter-core theft (2nd-Trace contention).
            self.tracker.record_theft(evicted.owner, self.owner, evicted.tag)
        if evicted.dirty:
            self.dram.access(evicted.tag, cycle, is_write=True)
        if self.inclusion == "inclusive":
            self._back_invalidate_all(evicted.tag, cycle)

    def _back_invalidate_all(self, block: int, cycle: int) -> None:
        for hierarchy in self.registry.values():
            hierarchy._back_invalidate_private(block, cycle)

    # ------------------------------------------------------------------ queries
    def llc_occupancy_fraction(self) -> float:
        """This core's share of LLC blocks (Eq. 6 numerator)."""
        return self.llc.occupancy(self.owner) / self.llc.capacity_blocks


class MemoryHierarchy(SharedPort):
    """Private caches + shared LLC/DRAM for one core.

    The lockstep demand walk: L1I/L1D/L2 and their prefetchers run here,
    and each access's LLC-side effects run at once through the inherited
    shared stage.

    A private level whose configured policy is ``"lru"`` (every shipped
    config) is a :class:`~repro.cache.cache.LruLevel`, one recency-ordered
    dict per set, which behaves exactly as ``Cache(policy="lru")`` for
    everything this walk reads: hit or miss, the evicted block's tag and
    dirty bit, and the level's :class:`~repro.cache.cache.CacheStats`.
    Way numbers are the only difference, and no reader of a private level
    sees them (no events, reuse tracking, PInTE or partitioning act on
    one). A level with any other policy is a :class:`Cache` running it.
    The cache-only host's :class:`~repro.cache.cache.LruFilter` is the
    same structure with only residency kept.
    """

    def __init__(
        self,
        config: MachineConfig,
        owner: int,
        llc: Optional[Cache] = None,
        dram: Optional[Dram] = None,
        tracker: Optional[ContentionTracker] = None,
        registry: Optional[Dict[int, SharedPort]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(config, owner, llc=llc, dram=dram, tracker=tracker,
                         registry=registry, seed=seed)
        self.l1i = self._make_level("L1I", config.l1i, seed)
        self.l1d = self._make_level("L1D", config.l1d, seed)
        self.l2 = self._make_level("L2", config.l2, seed)
        self.l1i_prefetcher = self._make_prefetcher(config.l1i.prefetcher)
        self.l1d_prefetcher = self._make_prefetcher(config.l1d.prefetcher)
        self.l2_prefetcher = self._make_prefetcher(config.l2.prefetcher)

    def _make_level(self, name: str, level: CacheLevelConfig,
                    seed: int) -> PrivateLevel:
        if level.policy == "lru":
            return LruLevel(name, level.size, level.assoc, self.block_size,
                            level.latency, self.owner)
        return Cache(name, level.size, level.assoc, self.block_size,
                     level.latency, level.policy, policy_seed=seed)

    def _make_prefetcher(self, name: str) -> Optional[Prefetcher]:
        if name == "none":
            return None
        return make_prefetcher(name, block_size=self.block_size)

    def reset_stats(self) -> None:
        """Warm-up boundary: clear every level's statistics."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.stats = CacheStats()
        super().reset_stats()

    # ------------------------------------------------------------------ demand
    def fetch(self, pc: int, cycle: int) -> int:
        """Instruction fetch; returns latency in cycles."""
        block = pc & ~(self.block_size - 1)
        return self._demand(self.l1i, self.l1i_prefetcher, pc, block, False, cycle)

    def load(self, pc: int, address: int, cycle: int) -> int:
        """Demand load; returns latency in cycles."""
        block = address & ~(self.block_size - 1)
        return self._demand(self.l1d, self.l1d_prefetcher, pc, block, False, cycle)

    def store(self, pc: int, address: int, cycle: int) -> int:
        """Store (write-allocate RFO); returns the fill latency."""
        block = address & ~(self.block_size - 1)
        return self._demand(self.l1d, self.l1d_prefetcher, pc, block, True, cycle)

    def _demand(self, l1: PrivateLevel, l1_prefetcher: Optional[Prefetcher],
                pc: int, block: int, is_write: bool, cycle: int) -> int:
        owner = self.owner
        latency = l1.latency
        if l1.access(block, is_write, owner):
            if l1_prefetcher is not None:
                self._run_prefetcher(l1, l1_prefetcher, pc, block, True,
                                     cycle + latency)
            return latency

        # L1 miss -> L2
        l2 = self.l2
        latency += l2.latency
        l2_hit = l2.access(block, False, owner)
        if self.l2_prefetcher is not None:
            self._run_prefetcher(l2, self.l2_prefetcher, pc, block, l2_hit,
                                 cycle + latency)
        if l2_hit:
            evicted = l1.fill(block, owner, is_write)
            if evicted is not None and evicted.dirty:
                self._writeback_to_l2(evicted.tag, cycle + latency)
            if l1_prefetcher is not None:
                self._run_prefetcher(l1, l1_prefetcher, pc, block, False,
                                     cycle + latency)
            return latency

        # L2 miss -> LLC (the shared stage)
        latency += self.llc_latency
        latency += self.llc_read(block, cycle + latency)
        dirty_from_llc = False
        if self.inclusion == "exclusive":
            # The hit moves up to L2; a miss left no LLC copy to drop.
            info = self.llc.invalidate(block)
            dirty_from_llc = bool(info and info.dirty)

        evicted = l2.fill(block, owner, dirty_from_llc)
        if evicted is not None:
            self._l2_eviction(evicted, cycle + latency)
        evicted = l1.fill(block, owner, is_write)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted.tag, cycle + latency)
        if l1_prefetcher is not None:
            self._run_prefetcher(l1, l1_prefetcher, pc, block, False,
                                 cycle + latency)

        # The PInTE hook: fires after every LLC demand access (UPDATE-ACCESS
        # has happened -- either the hit promotion or the miss fill above).
        if self.pinte is not None:
            self.pinte.on_llc_access(self.llc.set_index(block),
                                     cycle + latency, owner)
        return latency

    # ------------------------------------------------------------------- fills
    def _writeback_to_l2(self, block: int, cycle: int) -> None:
        if self.l2.mark_dirty(block):
            self.l2.stats.writeback_fills += 1
            return
        evicted = self.l2.fill(block, self.owner, dirty=True, is_writeback_fill=True)
        if evicted is not None:
            self._l2_eviction(evicted, cycle)

    def _l2_eviction(self, evicted: EvictedBlock, cycle: int) -> None:
        """Route an L2 victim according to the inclusion policy."""
        if self.inclusion == "exclusive":
            # Victim cache: every L2 eviction inserts into the LLC.
            self._llc_fill(evicted.tag, cycle, dirty=evicted.dirty, writeback=True)
        elif evicted.dirty:
            self.llc_writeback(evicted.tag, cycle)
        # clean, non-exclusive victims are silently dropped

    # ------------------------------------------------------------ invalidation
    def _back_invalidate_private(self, block: int, cycle: int) -> None:
        for cache in (self.l1i, self.l1d, self.l2):
            info = cache.invalidate(block)
            if info is not None and info.dirty:
                self.dram.access(block, cycle, is_write=True)

    # -------------------------------------------------------------- prefetching
    def _run_prefetcher(self, level: PrivateLevel,
                        prefetcher: Optional[Prefetcher], pc: int, block: int,
                        hit: bool, cycle: int) -> None:
        if prefetcher is None:
            return
        for candidate in prefetcher.on_access(pc, block, hit):
            self._prefetch_fill(level, candidate, cycle)

    def _prefetch_fill(self, target: PrivateLevel, block: int, cycle: int) -> None:
        """Bring ``block`` into ``target`` speculatively (no latency charged
        to the core; DRAM bandwidth is consumed)."""
        if target.probe(block) >= 0:
            return
        if target is self.l2 or self.l2.probe(block) < 0:
            self.llc_prefetch(block, cycle)
        if target is self.l2:
            evicted = target.fill(block, self.owner, prefetched=True)
            if evicted is not None:
                self._l2_eviction(evicted, cycle)
        else:
            evicted = target.fill(block, self.owner, prefetched=True)
            if evicted is not None and evicted.dirty:
                self._writeback_to_l2(evicted.tag, cycle)

    # ------------------------------------------------------------------ queries
    def prefetch_issued(self) -> int:
        return sum(
            p.stats.issued
            for p in (self.l1i_prefetcher, self.l1d_prefetcher, self.l2_prefetcher)
            if p is not None
        )

    def prefetch_useful(self) -> int:
        return (self.l1i.stats.prefetch_useful + self.l1d.stats.prefetch_useful
                + self.l2.stats.prefetch_useful + self.llc.stats.prefetch_useful)
