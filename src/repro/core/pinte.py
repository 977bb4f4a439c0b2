"""The PInTE engine: Probabilistic Induction of Theft Evictions.

Implements the paper's Fig 4 state machine. After every demand access to the
LLC (**UPDATE-ACCESS** is the normal replacement update, already done by the
cache), the engine:

1. **GEN-PROBABILITY** — draws ``trigger_ratio = rand / rand_max`` (Eq. 2)
   and exits unless ``trigger_ratio <= P_induce``. The comparison is made
   on the raw draw against :func:`~repro.util.rng.ratio_threshold`, computed
   once, which gives the same outcome for every draw.
2. **GEN-EVICT-CNT** — draws ``Blocks_evict`` uniformly in
   ``[0, associativity]`` and initialises the way counter.
3. **BLOCK-SELECT** — walks blocks from the eviction end of the replacement
   stack (the policy's :meth:`eviction_order_into`, read into a reusable
   buffer).
4. **PROMOTE** — moves the selected block to the protected end, exactly as
   if the adversary had just accessed it.
5. **INVALIDATE** — if the block was valid, clears its valid bit and queues
   a write-back when dirty; this is the induced *theft*. An invalid block
   that gets promoted is the paper's "mocked theft" (Fig 2b): the adversary
   appears to insert on a previously invalidated way.
6. **DECREMENT** — counts down ``Blocks_evict``; loops to BLOCK-SELECT or
   exits when the count reaches zero or the set is exhausted.

Each trigger runs steps 3-6 in three passes rather than way by way:
BLOCK-SELECT + DECREMENT take the first ``Blocks_evict`` ways of the
eviction order as one slice (the first ``Blocks_evict`` *valid* ways when
``promote_invalid`` is off); PROMOTE is one
:meth:`~repro.cache.replacement.base.ReplacementPolicy.promote_all` call,
which promotes them in walk order; INVALIDATE is one loop over the selected
ways that acts on the valid ones, keeping the per-way order of write-back
callback, event records, back-invalidation and theft accounting. The passes
equal the per-way walk exactly: the order is read once before any
promotion, PROMOTE touches only policy state (a random policy's RNG
included, drawn in the same order) and INVALIDATE touches only cache,
tracker and DRAM state, so neither pass reads what the other writes.
``tests/core/test_pinte_differential.py`` checks this against a per-way walk.

The engine is policy-agnostic: it only uses the PInTE hooks every
:class:`~repro.cache.replacement.base.ReplacementPolicy` provides.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.owners import SYSTEM_OWNER
from repro.cache.cache import Cache
from repro.core.counters import ContentionTracker
from repro.core.pinte_config import PinteConfig
from repro.util.rng import MAX_RANDOM, DeterministicRng, ratio_threshold

__all__ = ["PInTE", "PinteStats"]


class PinteStats:
    """Engine-level event counters (per simulation)."""

    __slots__ = ("accesses_seen", "triggers", "evict_draws_total",
                 "invalidations", "promotions", "dirty_writebacks")

    def __init__(self) -> None:
        self.accesses_seen = 0
        self.triggers = 0
        self.evict_draws_total = 0
        self.invalidations = 0
        self.promotions = 0
        self.dirty_writebacks = 0

    @property
    def trigger_rate(self) -> float:
        """Observed trigger frequency; converges to ``p_induce``."""
        if self.accesses_seen == 0:
            return 0.0
        return self.triggers / self.accesses_seen


class PInTE:
    """Contention injector bound to one LLC.

    Args:
        config: trigger probability and draw bounds.
        llc: the last-level cache to inject into.
        tracker: shared contention bookkeeping (thefts land here).
        writeback: callback invoked with (block_addr, cycle) for each dirty
            block the engine invalidates — the hierarchy wires this to the
            DRAM write path so induced evictions create real write traffic.
    """

    def __init__(
        self,
        config: PinteConfig,
        llc: Cache,
        tracker: ContentionTracker,
        writeback: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.config = config
        self.llc = llc
        self.tracker = tracker
        self.writeback = writeback
        #: Optional hook called with (block_addr, cycle) after an induced
        #: invalidation; wired by inclusive hierarchies so induced thefts
        #: also evict private-cache copies.
        self.back_invalidate: Optional[Callable[[int, int], None]] = None
        #: Optional :class:`~repro.obs.events.EventTrace`; ``None`` keeps the
        #: induction loop free of tracing work (one load+branch per trigger).
        self._events = None
        self.stats = PinteStats()
        self._rng = DeterministicRng(config.seed, "pinte")
        # Per-access hot-path bindings (PinteConfig is frozen, so they
        # cannot change under us): the raw-draw threshold of GEN-PROBABILITY
        # and the ``randint(0, max_evictions)`` bounds of GEN-EVICT-CNT.
        self._getrandbits = self._rng._getrandbits
        self._threshold = ratio_threshold(config.p_induce)
        self._evict_bound = (config.max_evictions or llc.assoc) + 1
        self._evict_bits = self._evict_bound.bit_length()
        self._promote_invalid = config.promote_invalid
        # Reusable BLOCK-SELECT walk buffer: the eviction order is read out
        # once per trigger without allocating a list per event.
        self._order_scratch: List[int] = [0] * llc.assoc

    def on_llc_access(self, set_index: int, cycle: int, accessing_owner: int) -> int:
        """Run the induction flow after one LLC demand access.

        Returns the number of blocks invalidated (induced thefts) so callers
        can assert on behaviour in tests.
        """
        stats = self.stats
        stats.accesses_seen += 1
        # GEN-PROBABILITY (Eq. 2): exit unless the trigger ratio falls at or
        # below P_induce, i.e. unless the raw draw is at most the threshold.
        # The draw is ``randint(0, MAX_RANDOM)`` with CPython's rejection
        # loop inlined, as in DeterministicRng.trigger_ratio.
        rng = self._rng
        rng.draws += 1
        getrandbits = self._getrandbits
        value = getrandbits(31)
        while value > MAX_RANDOM:
            value = getrandbits(31)
        if value > self._threshold:
            return 0
        stats.triggers += 1
        self.tracker.record_trigger(accessing_owner)

        # GEN-EVICT-CNT: ``randint(0, max_evictions)``, inlined the same way
        # (``_randbelow(max_evictions + 1)``).
        rng.draws += 1
        bound = self._evict_bound
        bits = self._evict_bits
        blocks_evict = getrandbits(bits)
        while blocks_evict >= bound:
            blocks_evict = getrandbits(bits)
        stats.evict_draws_total += blocks_evict
        if blocks_evict == 0:
            return 0
        return self._induce(set_index, blocks_evict, cycle)

    def _induce(self, set_index: int, blocks_evict: int, cycle: int) -> int:
        """BLOCK-SELECT + DECREMENT, then PROMOTE, then INVALIDATE."""
        llc = self.llc
        state = llc.state
        policy = llc.policy
        base = set_index * llc.assoc
        valid = state.valid
        # BLOCK-SELECT + DECREMENT: the first ``Blocks_evict`` ways from the
        # eviction end of the replacement stack. The order is captured once:
        # promotions move processed blocks to the protected end, which in
        # hardware means the walk pointer only ever advances (the way
        # counter ``w`` in the paper's flow).
        order = policy.eviction_order_into(set_index, self._order_scratch)
        if self._promote_invalid:
            selected = order[:blocks_evict]
        else:
            # Ablation: invalid ways are skipped, not counted.
            selected = [way for way in order if valid[base + way]]
            del selected[blocks_evict:]
            if not selected:
                return 0
        # PROMOTE: the adversary "accesses" every selected way, in walk
        # order. The SYSTEM counters are bound only now, so a walk that
        # selects nothing leaves tracker.owners untouched.
        policy.promote_all(set_index, selected)
        promoted = len(selected)
        stats = self.stats
        stats.promotions += promoted
        tracker = self.tracker
        tracker.counters(SYSTEM_OWNER).induced_promotions += promoted
        # INVALIDATE: the induced thefts, on the selected ways that were
        # valid. Promotion touched only policy state and this loop touches
        # only cache, tracker and DRAM state, so running the two as
        # separate passes equals the per-way interleaving of Fig 4.
        dirty = state.dirty
        tags = state.tags
        owners = state.owners
        prefetched = state.prefetched
        owner_counts = state.owner_counts
        tag_map = llc._tags[set_index]
        writeback = self.writeback
        back_invalidate = self.back_invalidate
        events = self._events
        invalidated = 0
        for way in selected:
            index = base + way
            if not valid[index]:
                if events is not None:
                    # Promotion of an invalid block is the mocked theft of
                    # Fig 2b -- the way now looks like a fresh adversary
                    # insertion.
                    events.record("promote", set_index, way, SYSTEM_OWNER,
                                  "mocked-theft", 0)
                continue
            block_addr = tags[index]
            victim_owner = owners[index]
            if dirty[index]:
                stats.dirty_writebacks += 1
                if writeback is not None:
                    writeback(block_addr, cycle)
                dirty[index] = 0
                if events is not None:
                    events.record("writeback", set_index, way,
                                  victim_owner, "pinte", block_addr)
            tag_map.pop(block_addr, None)
            valid[index] = 0
            prefetched[index] = 0
            owner_counts[victim_owner] -= 1
            invalidated += 1
            if victim_owner != SYSTEM_OWNER:
                tracker.record_theft(
                    victim_owner, SYSTEM_OWNER, block_addr, induced=True
                )
            if events is not None:
                events.record("theft", set_index, way, victim_owner,
                              "pinte", block_addr)
            if back_invalidate is not None:
                back_invalidate(block_addr, cycle)
        state.total_valid -= invalidated
        llc.stats.invalidations += invalidated
        stats.invalidations += invalidated
        return invalidated
