"""Contention topology: where in the cache do thefts land?

PInTE's per-access trigger follows the workload's set-access distribution,
while a real adversary follows its own; this module measures both. A
:class:`TheftTopology` records per-set theft counts (built from a run's
traced events with :meth:`TheftTopology.from_events`) and summarises their
spatial distribution: coverage (fraction of sets ever hit), concentration
(normalised entropy), and a hot-set list. Used by the diagnostics in the
ablation benches and by users checking whether their adversary "blankets"
the cache (the paper's complaint about tune-able workloads) or tracks the
victim's hot sets.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from repro.util.bitops import ilog2


class TheftTopology:
    """Per-set theft histogram over one LLC geometry."""

    def __init__(self, n_sets: int, block_size: int = 64) -> None:
        ilog2(n_sets)
        self.n_sets = n_sets
        self._offset_bits = ilog2(block_size)
        self._set_mask = n_sets - 1
        self.counts: List[int] = [0] * n_sets
        self.total = 0

    @classmethod
    def from_events(cls, events: Iterable, n_sets: int,
                    owner: int) -> "TheftTopology":
        """The thefts of ``owner``'s blocks among traced events
        (:class:`~repro.obs.events.Event`): PInTE-induced ``theft`` events
        and ``evict`` events with cause ``theft`` (another owner's fill
        displaced the block), counted in the set each landed in."""
        topology = cls(n_sets)
        counts = topology.counts
        for event in events:
            if event.owner == owner and (
                    event.kind == "theft"
                    or (event.kind == "evict" and event.cause == "theft")):
                counts[event.set_index] += 1
                topology.total += 1
        return topology

    def record(self, block_addr: int) -> None:
        """Count one theft of ``block_addr``."""
        set_index = (block_addr >> self._offset_bits) & self._set_mask
        self.counts[set_index] += 1
        self.total += 1

    # -- summaries ------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of sets that experienced at least one theft."""
        return sum(1 for count in self.counts if count) / self.n_sets

    def entropy(self) -> float:
        """Normalised Shannon entropy of the per-set distribution in [0, 1].

        1.0 means thefts land uniformly over all sets ("blanketing"); values
        near 0 mean they concentrate in a few hot sets.
        """
        if self.total == 0:
            return 0.0
        entropy = 0.0
        for count in self.counts:
            if count:
                p = count / self.total
                entropy -= p * math.log2(p)
        max_entropy = math.log2(self.n_sets)
        return entropy / max_entropy if max_entropy else 0.0

    def hottest_sets(self, count: int = 8) -> List[Tuple[int, int]]:
        """The ``count`` most-stolen-from sets as (set, thefts), hottest first."""
        ranked = sorted(range(self.n_sets), key=lambda s: -self.counts[s])
        return [(s, self.counts[s]) for s in ranked[:count]
                if self.counts[s] > 0]

    def histogram(self, buckets: int = 8) -> List[int]:
        """Per-set counts folded into ``buckets`` contiguous regions."""
        if buckets < 1 or self.n_sets % buckets:
            raise ValueError("buckets must divide the set count")
        span = self.n_sets // buckets
        return [sum(self.counts[i * span:(i + 1) * span])
                for i in range(buckets)]
