"""Contention accounting: thefts and interference (CASHT metrics).

A **theft** (Gomes et al., CASHT) is an inter-core eviction: a fill or
invalidation that removes valid data originally inserted by a different
owner. **Interference** is the downstream cost: a demand miss on a block the
owner previously lost to a theft. The paper's *contention rate* (Fig 1
y-axis) is thefts experienced divided by LLC accesses; its *interference
rate* (Fig 8/10 x-axis) is interference misses divided by LLC accesses.

The :class:`ContentionTracker` is shared by everything that can move LLC
data: demand fills from any core, and the PInTE engine acting as the
``SYSTEM`` adversary.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.owners import SYSTEM_OWNER

#: Bound on remembered stolen blocks per owner, so pathological workloads
#: cannot grow memory without limit. 2^16 blocks = 4 MB of tracked data.
STOLEN_SET_CAP = 1 << 16


class ContentionCounters:
    """Per-owner contention event counters."""

    __slots__ = (
        "llc_accesses", "llc_misses",
        "thefts_experienced", "thefts_caused",
        "interference_misses", "induced_thefts", "induced_promotions",
        "pinte_triggers",
    )

    def __init__(self) -> None:
        self.llc_accesses = 0
        self.llc_misses = 0
        self.thefts_experienced = 0
        self.thefts_caused = 0
        self.interference_misses = 0
        self.induced_thefts = 0
        self.induced_promotions = 0
        self.pinte_triggers = 0

    @property
    def contention_rate(self) -> float:
        """Thefts experienced per LLC access (paper Fig 1 y-axis)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.thefts_experienced / self.llc_accesses

    @property
    def interference_rate(self) -> float:
        """Interference misses per LLC access (paper Fig 8/10 x-axis)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.interference_misses / self.llc_accesses

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for periodic sampling."""
        return {name: getattr(self, name) for name in self.__slots__}


class ContentionTracker:
    """Shared theft/interference bookkeeping across all owners of one LLC."""

    def __init__(self) -> None:
        self._counters: Dict[int, ContentionCounters] = {}
        self._stolen: Dict[int, Set[int]] = {}

    def counters(self, owner: int) -> ContentionCounters:
        """Counters for ``owner`` (created on first use)."""
        counters = self._counters.get(owner)
        if counters is None:
            counters = ContentionCounters()
            self._counters[owner] = counters
            self._stolen[owner] = set()
        return counters

    @property
    def owners(self):
        """All owner ids seen so far (includes SYSTEM if PInTE ran)."""
        return sorted(self._counters)

    def stolen_blocks(self, owner: int) -> Set[int]:
        """The live stolen-block set for ``owner`` (created on first use).

        Exposed so single-owner hosts can inline the per-access accounting
        of :meth:`record_access`/:meth:`record_refill` in their hot loops;
        mutations must mirror those methods exactly.
        """
        self.counters(owner)
        return self._stolen[owner]

    # -- events ---------------------------------------------------------------
    def record_access(self, owner: int, block_addr: int, hit: bool) -> None:
        """A demand LLC access by ``owner``; detects interference on miss."""
        counters = self._counters.get(owner)
        if counters is None:
            counters = self.counters(owner)
        counters.llc_accesses += 1
        if not hit:
            counters.llc_misses += 1
            stolen = self._stolen[owner]
            if block_addr in stolen:
                counters.interference_misses += 1
                stolen.discard(block_addr)

    def record_theft(self, victim_owner: int, thief_owner: int,
                     block_addr: int, induced: bool = False) -> None:
        """``thief_owner`` evicted/invalidated ``victim_owner``'s valid block."""
        victim = self.counters(victim_owner)
        victim.thefts_experienced += 1
        thief = self.counters(thief_owner)
        thief.thefts_caused += 1
        if induced:
            victim.induced_thefts += 1
        stolen = self._stolen[victim_owner]
        if len(stolen) < STOLEN_SET_CAP:
            stolen.add(block_addr)

    def record_refill(self, owner: int, block_addr: int) -> None:
        """Block re-entered the LLC for ``owner`` (e.g. via prefetch)."""
        stolen = self._stolen.get(owner)
        if stolen is not None:
            stolen.discard(block_addr)

    def record_trigger(self, owner: int) -> None:
        """PInTE fired while ``owner`` was accessing the LLC."""
        self.counters(owner).pinte_triggers += 1

    def record_promotion(self, owner: int) -> None:
        """PInTE promoted a block (mocked adversary access)."""
        self.counters(owner).induced_promotions += 1

    # -- aggregates -------------------------------------------------------------
    def workload_owners(self):
        """Owner ids excluding the synthetic SYSTEM adversary."""
        return [owner for owner in self.owners if owner != SYSTEM_OWNER]

    def total_thefts(self) -> int:
        """All thefts experienced by workloads."""
        return sum(
            self._counters[owner].thefts_experienced
            for owner in self.workload_owners()
        )
