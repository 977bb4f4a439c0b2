"""Unit tests for the PInTE engine — the paper's Fig 4 state machine."""

import pytest

from repro.cache.cache import Cache
from repro.core import ContentionTracker, PInTE, PinteConfig
from repro.core.pinte_config import PAPER_PINDUCE_SWEEP
from repro.owners import SYSTEM_OWNER

BLOCK = 64


def make_llc(assoc=4, sets=4, policy="lru"):
    return Cache("LLC", assoc * sets * BLOCK, assoc, BLOCK, latency=38,
                 policy=policy, track_reuse=True)


def make_engine(p=1.0, llc=None, tracker=None, **config_kw):
    llc = llc if llc is not None else make_llc()
    tracker = tracker if tracker is not None else ContentionTracker()
    engine = PInTE(PinteConfig(p_induce=p, **config_kw), llc, tracker)
    return engine, llc, tracker


def fill_set(llc, set_index, owner=0, dirty=False):
    """Fill every way of one set with owner's blocks."""
    stride = BLOCK * llc.n_sets
    for way in range(llc.assoc):
        llc.fill(set_index * BLOCK + way * stride, owner, dirty=dirty)


class TestConfig:
    def test_p_induce_bounds(self):
        with pytest.raises(ValueError):
            PinteConfig(p_induce=-0.1)
        with pytest.raises(ValueError):
            PinteConfig(p_induce=1.1)

    def test_paper_sweep_has_12_configurations(self):
        assert len(PAPER_PINDUCE_SWEEP) == 12
        assert all(0 < p <= 1 for p in PAPER_PINDUCE_SWEEP)

    def test_negative_max_evictions_rejected(self):
        with pytest.raises(ValueError):
            PinteConfig(p_induce=0.5, max_evictions=-1)

    @pytest.mark.parametrize("field", ["max_evictions", "period_cycles"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "8", None])
    def test_non_int_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            PinteConfig(p_induce=0.5, **{field: value})


class TestGenProbability:
    def test_zero_probability_never_triggers(self):
        engine, llc, _ = make_engine(p=0.0)
        fill_set(llc, 0)
        for cycle in range(500):
            engine.on_llc_access(0, cycle, 0)
        assert engine.stats.triggers == 0
        assert llc.occupancy() == llc.assoc  # nothing invalidated

    def test_full_probability_always_triggers(self):
        engine, llc, _ = make_engine(p=1.0)
        fill_set(llc, 0)
        for cycle in range(100):
            engine.on_llc_access(0, cycle, 0)
        assert engine.stats.triggers == 100

    def test_trigger_rate_converges_to_p(self):
        engine, llc, _ = make_engine(p=0.3)
        fill_set(llc, 0)
        for cycle in range(4000):
            engine.on_llc_access(0, cycle, 0)
        assert engine.stats.trigger_rate == pytest.approx(0.3, abs=0.05)


class TestGenEvictCount:
    def test_eviction_count_bounded_by_associativity(self):
        engine, llc, _ = make_engine(p=1.0)
        for _ in range(200):
            fill_set(llc, 0)
            invalidated = engine.on_llc_access(0, 0, 0)
            assert 0 <= invalidated <= llc.assoc

    def test_max_evictions_override(self):
        engine, llc, _ = make_engine(p=1.0, max_evictions=1)
        for _ in range(100):
            fill_set(llc, 0)
            assert engine.on_llc_access(0, 0, 0) <= 1

    def test_average_draw_near_half_assoc(self):
        engine, llc, _ = make_engine(p=1.0)
        for _ in range(2000):
            engine.on_llc_access(0, 0, 0)
        mean_draw = engine.stats.evict_draws_total / engine.stats.triggers
        assert mean_draw == pytest.approx(llc.assoc / 2, rel=0.15)


class TestBlockSelectAndInvalidate:
    def test_invalidates_from_eviction_end(self):
        engine, llc, _ = make_engine(p=1.0, max_evictions=1)
        fill_set(llc, 0)
        lru_way = llc.policy.eviction_order(0)[0]
        lru_tag = llc.sets[0][lru_way].tag
        invalidated = 0
        while invalidated == 0:
            invalidated = engine.on_llc_access(0, 0, 0)
        assert llc.probe(lru_tag) == -1

    def test_induced_theft_recorded(self):
        engine, llc, tracker = make_engine(p=1.0)
        fill_set(llc, 0, owner=0)
        while engine.stats.invalidations == 0:
            engine.on_llc_access(0, 0, 0)
        counters = tracker.counters(0)
        assert counters.thefts_experienced >= 1
        assert counters.induced_thefts == counters.thefts_experienced
        assert tracker.counters(SYSTEM_OWNER).thefts_caused >= 1

    def test_dirty_invalidation_triggers_writeback(self):
        writebacks = []
        engine, llc, _ = make_engine(p=1.0)
        engine.writeback = lambda addr, cycle: writebacks.append((addr, cycle))
        fill_set(llc, 0, dirty=True)
        while engine.stats.invalidations == 0:
            engine.on_llc_access(0, 123, 0)
        assert writebacks
        assert engine.stats.dirty_writebacks == len(writebacks)

    def test_clean_invalidation_no_writeback(self):
        writebacks = []
        engine, llc, _ = make_engine(p=1.0)
        engine.writeback = lambda addr, cycle: writebacks.append(addr)
        fill_set(llc, 0, dirty=False)
        for _ in range(50):
            engine.on_llc_access(0, 0, 0)
        assert not writebacks

    def test_back_invalidate_hook(self):
        invalidated = []
        engine, llc, _ = make_engine(p=1.0)
        engine.back_invalidate = lambda addr, cycle: invalidated.append(addr)
        fill_set(llc, 0)
        while engine.stats.invalidations == 0:
            engine.on_llc_access(0, 0, 0)
        assert len(invalidated) == engine.stats.invalidations


class TestPromote:
    def test_promotion_happens_even_for_invalid_blocks(self):
        """The 'mocked theft' of Fig 2b: invalid blocks get promoted too."""
        engine, llc, _ = make_engine(p=1.0)
        # Empty set: every selected block is invalid.
        for _ in range(20):
            engine.on_llc_access(0, 0, 0)
        assert engine.stats.promotions > 0
        assert engine.stats.invalidations == 0

    def test_promote_invalid_ablation_skips_empty_ways(self):
        engine, llc, _ = make_engine(p=1.0, promote_invalid=False)
        for _ in range(20):
            engine.on_llc_access(0, 0, 0)
        assert engine.stats.promotions == 0

    def test_promoted_victim_moves_to_protected_end(self):
        engine, llc, _ = make_engine(p=1.0, max_evictions=1)
        fill_set(llc, 0)
        before = llc.policy.eviction_order(0)
        while engine.on_llc_access(0, 0, 0) == 0:
            pass
        after = llc.policy.eviction_order(0)
        # The previously most-evictable way is now at the protected end.
        assert after[-1] == before[0]


class TestDeterminism:
    def test_same_seed_same_behaviour(self):
        results = []
        for _ in range(2):
            engine, llc, _ = make_engine(p=0.5, seed=42)
            total = 0
            for cycle in range(300):
                fill_set(llc, 0)
                total += engine.on_llc_access(0, cycle, 0)
            results.append((total, engine.stats.triggers))
        assert results[0] == results[1]

    def test_different_seed_different_behaviour(self):
        totals = []
        for seed in (1, 2):
            engine, llc, _ = make_engine(p=0.5, seed=seed)
            total = 0
            for cycle in range(300):
                fill_set(llc, 0)
                total += engine.on_llc_access(0, cycle, 0)
            totals.append(total)
        assert totals[0] != totals[1]


@pytest.mark.parametrize("policy", ["lru", "plru", "nmru", "rrip"])
class TestPolicyAgnostic:
    def test_induction_works_on_all_policies(self, policy):
        llc = make_llc(policy=policy)
        engine, llc, tracker = make_engine(p=1.0, llc=llc)
        fill_set(llc, 0)
        total = 0
        for cycle in range(50):
            total += engine.on_llc_access(0, cycle, 0)
            fill_set(llc, 0)
        assert total > 0
        assert tracker.counters(0).thefts_experienced == total
