"""Trace caches: build each trace once per machine, read it once per call.

Sharded / process-per-job campaigns used to regenerate every synthetic
trace inside every worker process — the trace tier's equivalent of the
paper's cost problem (188 one-billion-instruction traces). Two caches
serve every consumer (``repro.sim.batch.run_job``, the campaign engine and
its pool workers, the ``repro trace cache`` CLI):

* :class:`TraceStore` — a content-addressed directory of ``PNTR2`` trace
  files keyed by (workload, llc_bytes, length, seed) plus a format-version
  salt (:func:`trace_key`), so a format bump can never serve stale bytes;
* :class:`MemoryTraceStore` — a bounded in-process memo, optionally
  layered over a ``TraceStore`` (:func:`trace_memo` makes one). An inline
  campaign or plan execution keeps one per call and every pool worker
  keeps one, so each distinct trace is built or read once per call (per
  worker on the pool).

Writes are atomic (temp file + ``os.replace``) so concurrent campaign
workers can share one store directory without locking: the worst case is
two workers both generating the same trace, with one rename winning.
Corrupt or truncated files are treated as misses and regenerated in
place.

Observability: both keep ``hits``/``misses`` counters, where a miss is a
generation and a hit any serve without one, and — when a
registry/profiler is attached — note ``trace.cache.hit``/``trace.cache.miss``
:class:`~repro.obs.registry.MetricRegistry` counters and
``trace.load``/``trace.generate`` :class:`~repro.obs.profile.PhaseProfiler`
spans.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.trace.io import FORMAT_VERSION, read_trace, write_trace
from repro.trace.packed import PackedTrace
from repro.trace.spec_models import get_workload
from repro.trace.synthetic import build_trace

__all__ = ["MEMORY_CAPACITY", "MemoryTraceStore", "StoreEntry", "TraceStore",
           "trace_key", "trace_memo"]

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")

#: Traces one :class:`MemoryTraceStore` keeps. Campaigns cycle over a
#: small workload panel, so a handful of entries covers the working set;
#: the bound keeps a process's RSS flat on campaigns with huge panels.
MEMORY_CAPACITY = 32


def trace_key(name: str, llc_bytes: int, length: int, seed: int) -> str:
    """The canonical content key: (workload, llc, length, seed) + a
    format salt."""
    return (f"{name}|llc={llc_bytes}|len={length}|seed={seed}"
            f"|fmt={FORMAT_VERSION}")


@dataclass(frozen=True)
class StoreEntry:
    """One cached trace file as listed by :meth:`TraceStore.entries`."""

    path: Path
    name: str
    records: int
    size_bytes: int


class TraceStore:
    """Content-addressed directory of reusable trace files.

    File names are ``<workload>-<sha256[:20]>.trace.gz`` where the digest
    covers the full :func:`trace_key` — human-greppable prefix, collision-
    proof suffix. The instance keeps ``hits``/``misses`` counters (a miss
    is a generation; a hit is any serve without generating).
    """

    SUFFIX = ".trace.gz"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- addressing ---------------------------------------------------------
    def path_for(self, name: str, llc_bytes: int, length: int,
                 seed: int) -> Path:
        """Deterministic file path for one (workload, llc, length, seed)."""
        key = trace_key(name, llc_bytes, length, seed)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20]
        safe = _UNSAFE.sub("_", name) or "trace"
        return self.root / f"{safe}-{digest}{self.SUFFIX}"

    # -- observability ------------------------------------------------------
    def _note(self, hit: bool, seconds: float, registry, profiler) -> None:
        """Record one lookup outcome on the counters/registry/profiler."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if registry is not None:
            registry.count("trace.cache.hit" if hit else "trace.cache.miss")
        if profiler is not None:
            end = time.perf_counter()
            profiler.add_span("trace.load" if hit else "trace.generate",
                              end - seconds - profiler.origin, seconds)

    # -- lookup / build -----------------------------------------------------
    def get(self, name: str, llc_bytes: int, length: int,
            seed: int) -> Optional[PackedTrace]:
        """The stored trace, or ``None`` when absent or unreadable."""
        path = self.path_for(name, llc_bytes, length, seed)
        if not path.exists():
            return None
        try:
            return read_trace(path)
        except (ValueError, OSError, EOFError):
            # Corrupt / truncated (e.g. a killed writer on a non-atomic
            # filesystem): treat as a miss so it gets regenerated.
            return None

    def get_or_build(self, name: str, llc_bytes: int, length: int, seed: int,
                     registry=None, profiler=None) -> PackedTrace:
        """Serve from disk when possible, else generate and persist."""
        start = time.perf_counter()
        trace = self.get(name, llc_bytes, length, seed)
        if trace is not None:
            self._note(True, time.perf_counter() - start, registry, profiler)
            return trace
        start = time.perf_counter()
        trace = build_trace(get_workload(name), length, seed, llc_bytes)
        self._note(False, time.perf_counter() - start, registry, profiler)
        self.put(trace, llc_bytes, length, seed)
        return trace

    def put(self, trace: PackedTrace, llc_bytes: int, length: int,
            seed: int) -> Path:
        """Atomically persist ``trace`` under its content key."""
        path = self.path_for(trace.name, llc_bytes, length, seed)
        self.root.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            write_trace(trace, temp)
            os.replace(temp, path)
        finally:
            if temp.exists():  # pragma: no cover - failed write cleanup
                temp.unlink()
        return path

    # -- maintenance --------------------------------------------------------
    def prime(self, names: Iterable[str], llc_bytes: int, length: int,
              seed: int, registry=None, profiler=None) -> Tuple[int, int]:
        """Pre-build traces for ``names``; returns (generated, reused)."""
        generated = reused = 0
        for name in names:
            before = self.misses
            self.get_or_build(name, llc_bytes, length, seed,
                              registry=registry, profiler=profiler)
            if self.misses > before:
                generated += 1
            else:
                reused += 1
        return generated, reused

    def entries(self) -> List[StoreEntry]:
        """Every cached trace file, with its embedded name and record count."""
        listed: List[StoreEntry] = []
        if not self.root.is_dir():
            return listed
        for path in sorted(self.root.glob(f"*{self.SUFFIX}")):
            try:
                trace = read_trace(path)
            except (ValueError, OSError, EOFError):
                continue
            listed.append(StoreEntry(path=path, name=trace.name,
                                     records=len(trace),
                                     size_bytes=path.stat().st_size))
        return listed

    def clear(self) -> int:
        """Delete every cached trace file; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob(f"*{self.SUFFIX}"):
            path.unlink()
            removed += 1
        return removed


class MemoryTraceStore:
    """Bounded in-process trace memo with the :class:`TraceStore` protocol.

    A campaign runs many jobs that share input traces; building or reading
    each one once per call, not once per job, is what keeps short-job
    campaigns fast. Traces are kept by :func:`trace_key`, at most
    :data:`MEMORY_CAPACITY` of them, evicting the oldest insertion first.
    A miss goes to ``underlying`` (a :class:`TraceStore`) when one is
    given, else to the generator.

    The ``hits``/``misses`` counters mean what ``TraceStore``'s mean: a
    miss is a generation, anything else a hit. A memo hit is a hit; what
    the underlying store serves counts as it counted there. Memo hits and
    storeless builds are noted on the registry/profiler exactly as
    ``TraceStore`` notes its lookups; the underlying store notes its own.
    """

    def __init__(self, underlying: Optional[TraceStore] = None) -> None:
        self.underlying = underlying
        self.hits = 0
        self.misses = 0
        self._traces: Dict[str, PackedTrace] = {}

    def get_or_build(self, name: str, llc_bytes: int, length: int, seed: int,
                     registry=None, profiler=None) -> PackedTrace:
        """Serve from memory when possible, else from the underlying store
        or the generator, and remember the trace."""
        key = trace_key(name, llc_bytes, length, seed)
        start = time.perf_counter()
        trace = self._traces.get(key)
        if trace is not None:
            self._note(True, time.perf_counter() - start, registry, profiler)
            return trace
        underlying = self.underlying
        if underlying is None:
            trace = build_trace(get_workload(name), length, seed, llc_bytes)
            self._note(False, time.perf_counter() - start, registry, profiler)
        else:
            hits, misses = underlying.hits, underlying.misses
            trace = underlying.get_or_build(name, llc_bytes, length, seed,
                                            registry=registry,
                                            profiler=profiler)
            self.hits += underlying.hits - hits
            self.misses += underlying.misses - misses
        if len(self._traces) >= MEMORY_CAPACITY:
            # Evict the oldest insertion; dict order makes this FIFO.
            del self._traces[next(iter(self._traces))]
        self._traces[key] = trace
        return trace

    # Same bookkeeping as TraceStore._note so observability output matches.
    _note = TraceStore._note


def trace_memo(trace_store=None) -> MemoryTraceStore:
    """The memo to serve traces from: ``trace_store`` itself when it is a
    :class:`MemoryTraceStore`, else a new one over it — a
    :class:`TraceStore`, a directory path (a ``TraceStore`` there) or
    ``None`` (generate)."""
    if isinstance(trace_store, MemoryTraceStore):
        return trace_store
    if trace_store is not None and not isinstance(trace_store, TraceStore):
        trace_store = TraceStore(trace_store)
    return MemoryTraceStore(trace_store)
