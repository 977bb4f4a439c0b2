"""Replacement policy interface.

PInTE manipulates the replacement stack directly (BLOCK-SELECT walks from the
eviction end; PROMOTE moves a block to the protected end), so on top of the
usual ``victim`` / ``on_hit`` / ``on_insert`` hooks every policy must expose:

* :meth:`eviction_order_into` — ways ordered most-evictable first (the
  "replacement stack" read out from its eviction end), written into a
  caller-owned buffer the per-event hot paths reuse;
* :meth:`promote` — move one way to the most-protected position, as if the
  adversary had just accessed it (:meth:`promote_all` promotes a trigger's
  selected ways in walk order, in one call); and
* :meth:`hit_position` — a hit way's distance from the protected end, the
  quantity the reuse histograms (paper Fig 5) record on every tracked hit.

Policies keep their own per-set state and read block metadata from the flat
:class:`~repro.cache.state.CacheSetState`; the
:class:`~repro.cache.cache.Cache` coordinates the two.
"""

from __future__ import annotations

from typing import List

from repro.cache.state import CacheSetState


class ReplacementPolicy:
    """Base class: per-set replacement state for ``n_sets`` x ``n_ways``."""

    name = "base"

    def __init__(self, n_sets: int, n_ways: int) -> None:
        if n_sets <= 0 or n_ways <= 0:
            raise ValueError("n_sets and n_ways must be positive")
        self.n_sets = n_sets
        self.n_ways = n_ways
        #: Reusable eviction-order buffer for internal queries, so default
        #: ``hit_position`` / ``_victim_valid`` stay allocation-free.
        self._scratch_order: List[int] = [0] * n_ways

    # -- normal cache operation -------------------------------------------
    def victim(self, set_index: int, state: CacheSetState) -> int:
        """Choose the way to evict for a fill into ``set_index``.

        Invalid ways must be preferred over valid ones — that is a cache
        invariant, enforced here for all subclasses (the scan runs at C
        speed over the state's ``valid`` byte array).
        """
        way = state.find_invalid_way(set_index)
        if way >= 0:
            return way
        return self._victim_valid(set_index, state)

    def on_hit(self, set_index: int, way: int) -> None:
        """Update state after a demand hit on ``way``."""
        raise NotImplementedError

    def on_insert(self, set_index: int, way: int) -> None:
        """Update state after a fill into ``way``."""
        raise NotImplementedError

    # -- PInTE hooks --------------------------------------------------------
    def eviction_order_into(self, set_index: int,
                            out: List[int]) -> List[int]:
        """Write all ways, most-evictable first, into ``out`` (length
        ``n_ways``); returns ``out``."""
        raise NotImplementedError

    def eviction_order(self, set_index: int) -> List[int]:
        """Allocating convenience wrapper over :meth:`eviction_order_into`."""
        return self.eviction_order_into(set_index, [0] * self.n_ways)

    def promote(self, set_index: int, way: int) -> None:
        """Move ``way`` to the most-protected position (adversary access)."""
        raise NotImplementedError

    def promote_all(self, set_index: int, ways: List[int]) -> None:
        """:meth:`promote` each of ``ways`` in order (one PInTE trigger's
        PROMOTE pass). Policies with a cheaper bulk form override this."""
        promote = self.promote
        for way in ways:
            promote(set_index, way)

    def hit_position(self, set_index: int, way: int) -> int:
        """Replacement-stack position of ``way`` from the protected end
        (0 = most protected / MRU-most).

        Default: read the stack through :meth:`eviction_order_into` on the
        policy's scratch buffer. Policies with cheap closed forms override
        this (LRU reads its recency stack, SRRIP counts RRPVs) so the
        per-hit path neither allocates nor sorts.
        """
        order = self.eviction_order_into(set_index, self._scratch_order)
        return self.n_ways - 1 - order.index(way)

    # -- subclass internals --------------------------------------------------
    def _victim_valid(self, set_index: int, state: CacheSetState) -> int:
        """Victim among all-valid ways; default: head of the eviction order."""
        return self.eviction_order_into(set_index, self._scratch_order)[0]
