"""Unit tests for the trace caches: the shared on-disk store and the
bounded in-memory memo."""

import gzip

import repro.trace.store as store_module

from repro.obs.profile import PhaseProfiler
from repro.obs.registry import MetricRegistry
from repro.trace.io import FORMAT_VERSION
from repro.trace.packed import as_packed
from repro.trace.spec_models import get_workload
from repro.trace.store import (
    MemoryTraceStore,
    TraceStore,
    trace_key,
    trace_memo,
)
from repro.trace.synthetic import build_trace

LLC = 65536


class TestKeying:
    def test_key_fields(self):
        key = trace_key("470.lbm", LLC, 1000, 7)
        assert key == f"470.lbm|llc={LLC}|len=1000|seed=7|fmt={FORMAT_VERSION}"

    def test_path_is_deterministic(self, tmp_path):
        store = TraceStore(tmp_path)
        a = store.path_for("470.lbm", LLC, 1000, 7)
        b = store.path_for("470.lbm", LLC, 1000, 7)
        assert a == b
        assert a.name.startswith("470.lbm-")
        assert a.name.endswith(".trace.gz")

    def test_every_key_field_changes_the_path(self, tmp_path):
        store = TraceStore(tmp_path)
        base = store.path_for("470.lbm", LLC, 1000, 7)
        assert store.path_for("429.mcf", LLC, 1000, 7) != base
        assert store.path_for("470.lbm", LLC * 2, 1000, 7) != base
        assert store.path_for("470.lbm", LLC, 2000, 7) != base
        assert store.path_for("470.lbm", LLC, 1000, 8) != base

    def test_unsafe_names_sanitised(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.path_for("a/b c", LLC, 10, 1)
        assert "/" not in path.name and " " not in path.name


class TestGetPut:
    def test_get_on_empty_store_misses(self, tmp_path):
        assert TraceStore(tmp_path).get("470.lbm", LLC, 1000, 7) is None

    def test_put_then_get_round_trips(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = build_trace(get_workload("470.lbm"), 1000, 7, LLC)
        store.put(trace, LLC, 1000, 7)
        loaded = store.get("470.lbm", LLC, 1000, 7)
        assert loaded is not None
        assert as_packed(loaded) == as_packed(trace)
        assert loaded.name == "470.lbm"

    def test_get_or_build_generates_then_serves(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.get_or_build("470.lbm", LLC, 1000, 7)
        assert (store.hits, store.misses) == (0, 1)
        second = store.get_or_build("470.lbm", LLC, 1000, 7)
        assert (store.hits, store.misses) == (1, 1)
        assert as_packed(first) == as_packed(second)

    def test_corrupt_file_treated_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_build("470.lbm", LLC, 1000, 7)
        path = store.path_for("470.lbm", LLC, 1000, 7)
        raw = gzip.decompress(path.read_bytes())
        with gzip.open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])  # truncate mid-column
        assert store.get("470.lbm", LLC, 1000, 7) is None
        rebuilt = store.get_or_build("470.lbm", LLC, 1000, 7)
        assert store.misses == 2
        assert store.get("470.lbm", LLC, 1000, 7).records == rebuilt.records

    def test_garbage_bytes_treated_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.path_for("470.lbm", LLC, 1000, 7)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not even gzip")
        assert store.get("470.lbm", LLC, 1000, 7) is None

    def test_no_stray_temp_files(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_build("470.lbm", LLC, 1000, 7)
        assert not list(tmp_path.glob("*.tmp.*"))


class TestObservability:
    def test_registry_counters(self, tmp_path):
        store = TraceStore(tmp_path)
        registry = MetricRegistry()
        store.get_or_build("470.lbm", LLC, 1000, 7, registry=registry)
        store.get_or_build("470.lbm", LLC, 1000, 7, registry=registry)
        store.get_or_build("470.lbm", LLC, 1000, 7, registry=registry)
        assert registry.counter("trace.cache.miss").value == 1
        assert registry.counter("trace.cache.hit").value == 2

    def test_profiler_spans(self, tmp_path):
        store = TraceStore(tmp_path)
        profiler = PhaseProfiler()
        store.get_or_build("470.lbm", LLC, 1000, 7, profiler=profiler)
        store.get_or_build("470.lbm", LLC, 1000, 7, profiler=profiler)
        totals = profiler.totals()
        assert totals["trace.generate"] > 0
        assert totals["trace.load"] > 0


class TestMaintenance:
    def test_prime_counts_generated_and_reused(self, tmp_path):
        store = TraceStore(tmp_path)
        names = ["470.lbm", "429.mcf"]
        assert store.prime(names, LLC, 500, 1) == (2, 0)
        assert store.prime(names + ["435.gromacs"], LLC, 500, 1) == (1, 2)

    def test_entries_lists_cached_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.entries() == []
        store.prime(["470.lbm", "429.mcf"], LLC, 500, 1)
        listed = store.entries()
        assert sorted(e.name for e in listed) == ["429.mcf", "470.lbm"]
        assert all(e.records == 500 for e in listed)
        assert all(e.size_bytes > 0 for e in listed)

    def test_clear_removes_everything(self, tmp_path):
        store = TraceStore(tmp_path)
        store.prime(["470.lbm", "429.mcf"], LLC, 500, 1)
        assert store.clear() == 2
        assert store.entries() == []
        assert store.clear() == 0


def _notes(store):
    """Hit/miss counters and span names three identical lookups note."""
    registry, profiler = MetricRegistry(), PhaseProfiler()
    for _ in range(3):
        store.get_or_build("470.lbm", LLC, 1000, 7, registry=registry,
                           profiler=profiler)
    counts = {name: registry.value(name) if name in registry else 0
              for name in ("trace.cache.hit", "trace.cache.miss")}
    return counts, [span.name for span in profiler.spans]


class TestMemoryTraceStore:
    def test_caches_traces(self):
        memo = MemoryTraceStore()
        first = memo.get_or_build("435.gromacs", LLC, 1000, 7)
        assert memo.get_or_build("435.gromacs", LLC, 1000, 7) is first

    def test_distinct_lengths_distinct_traces(self):
        memo = MemoryTraceStore()
        long = memo.get_or_build("435.gromacs", LLC, 2500, 7)
        short = memo.get_or_build("435.gromacs", LLC, 1000, 7)
        assert short is not long
        assert len(short) == 1000

    def test_trace_named_after_workload(self):
        memo = MemoryTraceStore()
        assert memo.get_or_build("470.lbm", LLC, 1000, 7).name == "470.lbm"

    def test_storeless_memo_hit_counts_as_hit(self):
        memo = MemoryTraceStore()
        first = memo.get_or_build("470.lbm", LLC, 1000, 7)
        second = memo.get_or_build("470.lbm", LLC, 1000, 7)
        assert first is second  # memoised object, not a rebuild
        assert (memo.hits, memo.misses) == (1, 1)  # one generation
        assert first == build_trace(get_workload("470.lbm"), 1000, 7, LLC)

    def test_store_backed_memo_hit_counts_as_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        memo = MemoryTraceStore(store)
        memo.get_or_build("470.lbm", LLC, 1000, 7)
        memo.get_or_build("470.lbm", LLC, 1000, 7)
        assert (memo.hits, memo.misses) == (1, 1)  # memo hit, store build
        assert (store.hits, store.misses) == (0, 1)  # shielded from call 2

    def test_underlying_deltas_pass_through(self, tmp_path):
        TraceStore(tmp_path).get_or_build("470.lbm", LLC, 1000, 7)
        store = TraceStore(tmp_path)
        memo = MemoryTraceStore(store)
        memo.get_or_build("470.lbm", LLC, 1000, 7)      # read from disk
        memo.get_or_build("435.gromacs", LLC, 1000, 7)  # generated
        assert (store.hits, store.misses) == (1, 1)
        assert (memo.hits, memo.misses) == (1, 1)

    def test_capacity_bounds_memo(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_CAPACITY", 2)
        memo = MemoryTraceStore()
        for seed in (1, 2, 3):
            memo.get_or_build("470.lbm", LLC, 1000, seed)
        assert len(memo._traces) == 2
        memo.get_or_build("470.lbm", LLC, 1000, 2)  # still held
        assert (memo.hits, memo.misses) == (1, 3)
        # Seed 1 was evicted first in, first out; re-requesting rebuilds.
        memo.get_or_build("470.lbm", LLC, 1000, 1)
        assert (memo.hits, memo.misses) == (1, 4)

    def test_notes_match_trace_store(self, tmp_path):
        expected = _notes(TraceStore(tmp_path / "disk"))
        assert expected == ({"trace.cache.hit": 2, "trace.cache.miss": 1},
                            ["trace.generate", "trace.load", "trace.load"])
        assert _notes(MemoryTraceStore()) == expected
        layered = MemoryTraceStore(TraceStore(tmp_path / "layered"))
        assert _notes(layered) == expected

    def test_trace_memo_layers_over_what_it_is_given(self, tmp_path):
        memo = MemoryTraceStore()
        assert trace_memo(memo) is memo
        assert trace_memo().underlying is None
        store = TraceStore(tmp_path)
        assert trace_memo(store).underlying is store
        assert trace_memo(str(tmp_path)).underlying.root == tmp_path
