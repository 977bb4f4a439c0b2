"""Static Re-Reference Interval Prediction (SRRIP, Jaleel et al. ISCA 2010)."""

from __future__ import annotations

from typing import List

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.state import CacheSetState

#: Byte translation ``v -> 255 - v``: ascending order of the translated
#: RRPVs is descending RRPV order.
_INVERT = bytes(range(255, -1, -1))


class RripPolicy(ReplacementPolicy):
    """SRRIP with ``m``-bit re-reference prediction values (RRPV).

    Hits promote to RRPV 0 (near-immediate re-reference); inserts use
    ``long`` re-reference (max - 1); victims are the first way at max RRPV,
    ageing the whole set until one appears.

    RRPVs are stored one ``bytearray`` per set so the victim scan, the
    ageing step and the hit-position count all run through C-speed byte
    primitives (``find``/``max``/``count``); this caps ``rrpv_bits`` at 8,
    far above any published configuration (2-3 bits).
    """

    name = "rrip"

    def __init__(self, n_sets: int, n_ways: int, rrpv_bits: int = 2) -> None:
        super().__init__(n_sets, n_ways)
        if not 1 <= rrpv_bits <= 8:
            raise ValueError("rrpv_bits must be in [1, 8]")
        self.max_rrpv = (1 << rrpv_bits) - 1
        self.insert_rrpv = self.max_rrpv - 1
        self._rrpv: List[bytearray] = [
            bytearray([self.max_rrpv]) * n_ways for _ in range(n_sets)
        ]

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def on_insert(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.insert_rrpv

    def promote(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def promote_all(self, set_index: int, ways: List[int]) -> None:
        rrpv = self._rrpv[set_index]
        for way in ways:
            rrpv[way] = 0

    def _victim_valid(self, set_index: int, state: CacheSetState) -> int:
        # RRPVs never exceed max_rrpv, so "first way at max RRPV" is an
        # exact byte search; when none matches, one ageing step of
        # ``max_rrpv - max(rrpv)`` lands the highest way exactly on max —
        # identical to repeating +1 ageing rounds until a victim appears.
        rrpv = self._rrpv[set_index]
        max_rrpv = self.max_rrpv
        way = rrpv.find(max_rrpv)
        if way >= 0:
            return way
        deficit = max_rrpv - max(rrpv)
        for index in range(self.n_ways):
            rrpv[index] += deficit
        return rrpv.find(max_rrpv)

    def eviction_order_into(self, set_index: int, out: List[int]) -> List[int]:
        """Ways sorted by descending RRPV (most distant re-reference first);
        ties broken by way index, matching hardware scan order."""
        # One stable C-level sort keyed on the inverted RRPV bytes.
        out[:] = sorted(range(self.n_ways),
                        key=self._rrpv[set_index].translate(_INVERT).__getitem__)
        return out

    def hit_position(self, set_index: int, way: int) -> int:
        # Position from the protected end = how many ways sort *after* this
        # one under (-rrpv, way): every way with a lower RRPV, plus
        # equal-RRPV ways at a higher index. Counted with C-speed byte
        # counts instead of the per-hit sort the histogram used to pay for;
        # counting the protected side keeps the loop short for the common
        # case (a previously-promoted block at RRPV 0 needs one count).
        rrpv = self._rrpv[set_index]
        mine = rrpv[way]
        position = rrpv.count(mine, way + 1)
        for value in range(mine):
            position += rrpv.count(value)
        return position
