"""The PInTE engine against a plainly written per-way Fig 4 walk.

:class:`ReferencePInTE` runs the paper's flow one way at a time: draw the
trigger ratio and compare it with ``P_induce``, draw ``Blocks_evict`` with
``randint``, then for each way from the eviction end PROMOTE it, INVALIDATE
it when valid, and DECREMENT. The engine instead selects the ways in one
slice, promotes them in one policy call and invalidates them in one pass.
Hypothesis drives both from the same seeds over every registered policy,
random set contents and configurations, and every observable piece of state
must agree after every trigger.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import POLICIES
from repro.core import ContentionTracker, PInTE, PinteConfig
from repro.core.pinte import PinteStats
from repro.core.pinte_config import PAPER_PINDUCE_SWEEP
from repro.obs.events import EventTrace
from repro.owners import SYSTEM_OWNER
from repro.util.rng import DeterministicRng

BLOCK = 64
OWNERS = (0, 1, 2, SYSTEM_OWNER)


class ReferencePInTE:
    """The Fig 4 flow walked way by way, with no bulk steps."""

    def __init__(self, config, llc, tracker):
        self.config = config
        self.llc = llc
        self.tracker = tracker
        self.writeback = None
        self.back_invalidate = None
        self._events = None
        self.stats = PinteStats()
        self._rng = DeterministicRng(config.seed, "pinte")
        self.max_evictions = config.max_evictions or llc.assoc

    def on_llc_access(self, set_index, cycle, accessing_owner):
        stats = self.stats
        stats.accesses_seen += 1
        # GEN-PROBABILITY
        if self._rng.trigger_ratio() > self.config.p_induce:
            return 0
        stats.triggers += 1
        self.tracker.record_trigger(accessing_owner)
        # GEN-EVICT-CNT
        blocks_evict = self._rng.randint(0, self.max_evictions)
        stats.evict_draws_total += blocks_evict
        if blocks_evict == 0:
            return 0
        llc = self.llc
        state = llc.state
        base = set_index * llc.assoc
        events = self._events
        invalidated = 0
        # BLOCK-SELECT
        for way in llc.policy.eviction_order(set_index):
            if blocks_evict == 0:
                break
            index = base + way
            is_valid = state.valid[index]
            if not is_valid and not self.config.promote_invalid:
                continue
            # PROMOTE
            llc.policy.promote(set_index, way)
            stats.promotions += 1
            self.tracker.record_promotion(SYSTEM_OWNER)
            if is_valid:
                # INVALIDATE
                block_addr = state.tags[index]
                victim_owner = state.owners[index]
                if state.dirty[index]:
                    stats.dirty_writebacks += 1
                    if self.writeback is not None:
                        self.writeback(block_addr, cycle)
                    state.dirty[index] = 0
                    if events is not None:
                        events.record("writeback", set_index, way,
                                      victim_owner, "pinte", block_addr)
                del llc._tags[set_index][block_addr]
                state.valid[index] = 0
                state.prefetched[index] = 0
                state.total_valid -= 1
                state.owner_counts[victim_owner] -= 1
                llc.stats.invalidations += 1
                invalidated += 1
                stats.invalidations += 1
                if victim_owner != SYSTEM_OWNER:
                    self.tracker.record_theft(victim_owner, SYSTEM_OWNER,
                                              block_addr, induced=True)
                if events is not None:
                    events.record("theft", set_index, way, victim_owner,
                                  "pinte", block_addr)
                if self.back_invalidate is not None:
                    self.back_invalidate(block_addr, cycle)
            elif events is not None:
                events.record("promote", set_index, way, SYSTEM_OWNER,
                              "mocked-theft", 0)
            blocks_evict -= 1  # DECREMENT
        return invalidated


class Side:
    """One LLC + tracker + engine, with recorders on every callback."""

    def __init__(self, engine_class, policy, assoc, n_sets, config,
                 with_events, with_callbacks):
        self.llc = Cache("LLC", assoc * n_sets * BLOCK, assoc, BLOCK,
                         latency=1, policy=policy, policy_seed=3)
        self.tracker = ContentionTracker()
        self.engine = engine_class(config, self.llc, self.tracker)
        self.events = EventTrace(capacity=10_000) if with_events else None
        if self.events is not None:
            self.events.attach(self.engine)
        #: Write-backs and back-invalidations in call order, each with the
        #: events and thefts recorded so far, which pins their order
        #: against the event records and ``record_theft``.
        self.calls = []
        if with_callbacks:
            self.engine.writeback = self._recorder("wb")
            self.engine.back_invalidate = self._recorder("inv")

    def _recorder(self, kind):
        def record(addr, cycle):
            system = self.tracker._counters.get(SYSTEM_OWNER)
            self.calls.append((
                kind, addr, cycle,
                None if self.events is None else self.events.recorded,
                None if system is None else system.thefts_caused))
        return record

    def apply(self, op):
        """Replay one cache operation (set-up or between triggers)."""
        kind, set_index, slot, owner, flag = op
        block = (slot * self.llc.n_sets + set_index) * BLOCK
        if kind == "fill":
            if not self.llc.access(block, flag, owner):
                self.llc.fill(block, owner, dirty=flag,
                              prefetched=(slot % 3 == 0))
        elif kind == "invalidate":
            self.llc.invalidate(block)

    def observe(self):
        llc = self.llc
        state = llc.state
        tracker = self.tracker
        # Reading the order advances a random policy's RNG; both sides
        # read it at the same points, so their streams stay aligned.
        orders = [llc.policy.eviction_order(s) for s in range(llc.n_sets)]
        stats = self.engine.stats
        return {
            "tags": list(state.tags),
            "valid": bytes(state.valid),
            "dirty": bytes(state.dirty),
            "prefetched": bytes(state.prefetched),
            "owners": list(state.owners),
            "owner_counts": dict(state.owner_counts),
            "total_valid": state.total_valid,
            "tag_maps": [dict(tag_map) for tag_map in llc._tags],
            "llc_stats": llc.stats.snapshot(),
            "orders": orders,
            "tracker_owners": list(tracker._counters),
            "tracker": {owner: tracker.counters(owner).snapshot()
                        for owner in tracker.owners},
            "stolen": {owner: set(blocks)
                       for owner, blocks in tracker._stolen.items()},
            "stats": {name: getattr(stats, name)
                      for name in type(stats).__slots__},
            "events": (None if self.events is None else
                       (self.events.events(), dict(self.events.counts))),
            "calls": list(self.calls),
            "draws": self.engine._rng.draws,
        }


POLICY_NAMES = sorted(POLICIES)
P_POINTS = (0.0, PAPER_PINDUCE_SWEEP[0], PAPER_PINDUCE_SWEEP[3],
            PAPER_PINDUCE_SWEEP[6], PAPER_PINDUCE_SWEEP[9], 1.0)

ops = st.tuples(st.sampled_from(("fill", "fill", "invalidate")),
                st.integers(0, 3),            # set (mod n_sets)
                st.integers(0, 23),           # block slot within the set
                st.sampled_from(OWNERS),
                st.booleans())                # dirty / write
steps = st.one_of(
    ops,
    st.tuples(st.just("trigger"), st.integers(0, 3), st.integers(0, 50),
              st.sampled_from(OWNERS)),
)


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(POLICY_NAMES),
    assoc=st.sampled_from((1, 2, 4, 8, 16)),
    n_sets=st.sampled_from((1, 2, 4)),
    p=st.sampled_from(P_POINTS),
    promote_invalid=st.booleans(),
    max_evictions=st.integers(0, 20),
    seed=st.integers(0, 2**16),
    with_events=st.booleans(),
    with_callbacks=st.booleans(),
    setup=st.lists(ops, max_size=80),
    script=st.lists(steps, min_size=1, max_size=60),
)
def test_engine_matches_the_per_way_walk(policy, assoc, n_sets, p,
                                         promote_invalid, max_evictions,
                                         seed, with_events, with_callbacks,
                                         setup, script):
    config = PinteConfig(p_induce=p, max_evictions=max_evictions,
                         promote_invalid=promote_invalid, seed=seed)
    sides = [Side(cls, policy, assoc, n_sets, config, with_events,
                  with_callbacks)
             for cls in (ReferencePInTE, PInTE)]
    for op in setup:
        for side in sides:
            side.apply(op)
    reference, engine = sides
    assert engine.observe() == reference.observe()
    for step in script:
        if step[0] != "trigger":
            for side in sides:
                side.apply(step)
            continue
        _, set_index, cycle, owner = step
        set_index %= n_sets
        results = [side.engine.on_llc_access(set_index, cycle, owner)
                   for side in sides]
        assert results[1] == results[0]
        for side in sides:
            side.llc.check_invariants()
        assert engine.observe() == reference.observe()
