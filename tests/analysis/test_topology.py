"""Tests for contention topology diagnostics."""

import pytest

from repro.analysis.topology import TheftTopology
from repro.core import ContentionTracker, PInTE, PinteConfig
from repro.cache.cache import Cache
from repro.obs.events import Event, EventTrace

BLOCK = 64


class TestTheftTopology:
    def test_record_maps_to_set(self):
        topology = TheftTopology(n_sets=8)
        topology.record(3 * BLOCK)
        topology.record(3 * BLOCK + 8 * BLOCK)  # same set, next way stride
        assert topology.counts[3] == 2
        assert topology.total == 2

    def test_coverage(self):
        topology = TheftTopology(n_sets=4)
        topology.record(0)
        topology.record(BLOCK)
        assert topology.coverage() == 0.5

    def test_entropy_uniform_is_one(self):
        topology = TheftTopology(n_sets=4)
        for set_index in range(4):
            topology.record(set_index * BLOCK)
        assert topology.entropy() == pytest.approx(1.0)

    def test_entropy_concentrated_is_zero(self):
        topology = TheftTopology(n_sets=4)
        for _ in range(10):
            topology.record(0)
        assert topology.entropy() == pytest.approx(0.0)

    def test_entropy_empty(self):
        assert TheftTopology(n_sets=4).entropy() == 0.0

    def test_hottest_sets(self):
        topology = TheftTopology(n_sets=4)
        for _ in range(3):
            topology.record(2 * BLOCK)
        topology.record(0)
        hottest = topology.hottest_sets(count=2)
        assert hottest[0] == (2, 3)
        assert hottest[1] == (0, 1)

    def test_hottest_excludes_untouched(self):
        topology = TheftTopology(n_sets=8)
        topology.record(0)
        assert len(topology.hottest_sets(count=8)) == 1

    def test_histogram_buckets(self):
        topology = TheftTopology(n_sets=8)
        topology.record(0)
        topology.record(7 * BLOCK)
        assert topology.histogram(buckets=2) == [1, 1]

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            TheftTopology(n_sets=8).histogram(buckets=3)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TheftTopology(n_sets=3)


class TestFromEvents:
    def test_counts_the_owners_thefts_per_set(self):
        events = [
            Event(0, 0, "theft", 3, 0, 0, "pinte", 0),
            Event(1, 0, "evict", 3, 1, 0, "theft", 0),
            Event(2, 0, "evict", 5, 0, 0, "replace", 0),  # own conflict
            Event(3, 0, "evict", 6, 0, 1, "theft", 0),  # another victim
            Event(4, 0, "fill", 7, 0, 0, "demand", 0),
        ]
        topology = TheftTopology.from_events(events, n_sets=8, owner=0)
        assert topology.total == 2
        assert topology.counts[3] == 2


class TestWithPinte:
    def test_pinte_thefts_follow_accessed_sets(self):
        """Per-access PInTE steals only where the workload goes — topology
        shows concentration, not blanketing."""
        llc = Cache("LLC", 16 * 4 * BLOCK, 4, BLOCK, latency=1)
        tracker = ContentionTracker()
        events = EventTrace()
        engine = PInTE(PinteConfig(1.0, seed=1), llc, tracker)
        events.attach(engine)
        stride = BLOCK * llc.n_sets
        hot_sets = (2, 5)
        for i in range(200):
            set_index = hot_sets[i % 2]
            for way in range(llc.assoc):
                llc.fill(set_index * BLOCK + way * stride, 0)
            engine.on_llc_access(set_index, i, 0)
        topology = TheftTopology.from_events(events.events(), llc.n_sets,
                                             owner=0)
        assert topology.total > 0
        assert topology.coverage() == pytest.approx(2 / 16)
        touched = {s for s, _ in topology.hottest_sets(16)}
        assert touched == set(hot_sets)
