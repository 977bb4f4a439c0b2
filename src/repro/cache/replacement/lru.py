"""True LRU replacement: an explicit recency stack per set."""

from __future__ import annotations

from typing import List

from repro.cache.replacement.base import ReplacementPolicy


class LruPolicy(ReplacementPolicy):
    """Least Recently Used with an exact per-set recency order.

    ``_stacks[s]`` lists ways MRU-first; the eviction end is the tail.
    """

    name = "lru"

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        self._stacks: List[List[int]] = [list(range(n_ways)) for _ in range(n_sets)]

    def _touch(self, set_index: int, way: int) -> None:
        """Move ``way`` to the MRU end of its set's recency stack."""
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.insert(0, way)

    # A hit, a fill and a PInTE promotion all make ``way`` MRU-most: the
    # hooks *are* the touch, so the per-access path adds no second frame.
    on_hit = on_insert = promote = _touch

    def eviction_order_into(self, set_index: int, out: List[int]) -> List[int]:
        stack = self._stacks[set_index]
        last = self.n_ways - 1
        for position, way in enumerate(stack):
            out[last - position] = way
        return out

    def _victim_valid(self, set_index, state) -> int:
        # The eviction end is the recency stack's tail — O(1), no read-out.
        return self._stacks[set_index][-1]

    def hit_position(self, set_index: int, way: int) -> int:
        # The recency stack is MRU-first, so the position from the protected
        # end is just the way's index in the stack — no copy, no reversal.
        return self._stacks[set_index].index(way)
