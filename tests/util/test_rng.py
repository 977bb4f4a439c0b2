"""Unit tests for the deterministic RNG."""

import math
import random

import pytest

from repro.cache.cache import Cache
from repro.core import ContentionTracker, PInTE, PinteConfig
from repro.core.pinte_config import PAPER_PINDUCE_SWEEP
from repro.util.rng import MAX_RANDOM, DeterministicRng, ratio_threshold


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "x")
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1, "x")
        b = DeterministicRng(2, "x")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_different_salts_differ(self):
        a = DeterministicRng(1, "x")
        b = DeterministicRng(1, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


class TestTriggerRatio:
    def test_in_unit_interval(self):
        rng = DeterministicRng(7)
        for _ in range(1000):
            ratio = rng.trigger_ratio()
            assert 0.0 <= ratio <= 1.0

    def test_matches_eq2_form(self):
        """The ratio is rand/MAX_RANDOM, so it is a multiple of 1/MAX_RANDOM."""
        rng = DeterministicRng(7)
        ratio = rng.trigger_ratio()
        reconstructed = round(ratio * MAX_RANDOM) / MAX_RANDOM
        assert abs(ratio - reconstructed) < 1e-12

    def test_roughly_uniform(self):
        rng = DeterministicRng(11)
        n = 5000
        mean = sum(rng.trigger_ratio() for _ in range(n)) / n
        assert 0.45 < mean < 0.55


def _threshold_probes():
    """p = 0, p = 1, each sweep point and k / MAX_RANDOM +- 1 ulp around
    each sweep point's own threshold."""
    probes = {0.0, 1.0, *PAPER_PINDUCE_SWEEP}
    for p in PAPER_PINDUCE_SWEEP + (0.0, 1.0):
        k = int(p * MAX_RANDOM)
        for v in (k - 1, k, k + 1):
            if 0 <= v <= MAX_RANDOM:
                ratio = v / MAX_RANDOM
                probes.update((ratio, math.nextafter(ratio, -1.0),
                               math.nextafter(ratio, 2.0)))
    return sorted(probes)


class TestRatioThreshold:
    @pytest.mark.parametrize("p", _threshold_probes())
    def test_agrees_with_the_eq2_comparison(self, p):
        threshold = ratio_threshold(p)
        assert -1 <= threshold <= MAX_RANDOM
        # Every draw up to the threshold triggers, every one above does not.
        for v in (threshold - 1, threshold):
            if v >= 0:
                assert v / MAX_RANDOM <= p
        if threshold < MAX_RANDOM:
            assert (threshold + 1) / MAX_RANDOM > p

    def test_end_points(self):
        assert ratio_threshold(0.0) == 0
        assert ratio_threshold(1.0) == MAX_RANDOM
        assert ratio_threshold(-1e-9) == -1


class TestEngineDraws:
    """The engine inlines ``randint`` for GEN-PROBABILITY and GEN-EVICT-CNT;
    its draws must equal ``random.Random.randint`` on this Python."""

    @pytest.mark.parametrize("max_evictions", [1, 2, 3, 5, 8, 16, 17, 31])
    def test_evict_count_matches_randint(self, max_evictions):
        for seed in range(40):
            llc = Cache("LLC", 4 * 2 * 64, 4, 64, latency=1)
            engine = PInTE(PinteConfig(p_induce=1.0, seed=seed,
                                       max_evictions=max_evictions),
                           llc, ContentionTracker())
            expected = random.Random(f"{seed}:pinte")
            for _ in range(25):
                before = engine.stats.evict_draws_total
                engine.on_llc_access(0, 0, 0)
                expected.randint(0, MAX_RANDOM)  # the trigger draw
                assert (engine.stats.evict_draws_total - before
                        == expected.randint(0, max_evictions))
            assert engine._rng.draws == 50

    def test_trigger_matches_randint(self):
        for p in PAPER_PINDUCE_SWEEP:
            llc = Cache("LLC", 4 * 2 * 64, 4, 64, latency=1)
            engine = PInTE(PinteConfig(p_induce=p, seed=7), llc,
                           ContentionTracker())
            expected = random.Random("7:pinte")
            for _ in range(400):
                triggers = engine.stats.triggers
                engine.on_llc_access(0, 0, 0)
                fired = expected.randint(0, MAX_RANDOM) / MAX_RANDOM <= p
                assert engine.stats.triggers - triggers == fired
                if fired:
                    expected.randint(0, llc.assoc)


class TestDraws:
    def test_randint_bounds_inclusive(self):
        rng = DeterministicRng(3)
        values = {rng.randint(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_choice(self):
        rng = DeterministicRng(3)
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(20))

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(3)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # vanishingly unlikely for 20 elements

    def test_draw_counter(self):
        rng = DeterministicRng(5)
        rng.random()
        rng.randint(0, 1)
        rng.trigger_ratio()
        assert rng.draws == 3


class TestFork:
    def test_fork_is_independent(self):
        parent = DeterministicRng(9, "p")
        child = parent.fork("c")
        before = [child.random() for _ in range(5)]
        # Draining the parent must not affect a fresh fork's stream.
        parent2 = DeterministicRng(9, "p")
        for _ in range(100):
            parent2.random()
        child2 = parent2.fork("c")
        assert before == [child2.random() for _ in range(5)]

    def test_fork_salt_chains(self):
        rng = DeterministicRng(9, "a")
        assert rng.fork("b").salt == "a/b"
