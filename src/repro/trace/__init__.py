"""Trace substrate: the one trace type (:class:`PackedTrace`, columnar,
with :class:`TraceRecord` as its record-level view), synthetic
generators, I/O, the trace caches (the on-disk :class:`TraceStore` and
the bounded in-process :class:`MemoryTraceStore`), and simpoints."""

from repro.trace.io import FORMAT_VERSION, read_trace, write_trace
from repro.trace.packed import PackedTrace, as_packed
from repro.trace.patterns import (
    AccessPattern,
    MixedPhasePattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StreamPattern,
    WorkingSetPattern,
    reuse_distances,
)
from repro.trace.mixes import (
    class_balanced_mixes,
    pair_coverage,
    pairs_covered,
    random_mixes,
)
from repro.trace.record import TraceRecord
from repro.trace.simpoint import (
    SimpointWeight,
    uniform_weights,
    weighted_metric,
    weighted_metrics,
)
from repro.trace.spec_models import (
    CACHE_FRIENDLY,
    CORE_BOUND,
    DRAM_BOUND,
    LLC_BOUND,
    MIXED,
    SPEC_WORKLOADS,
    WorkloadSpec,
    get_workload,
    suite_names,
    workloads_by_class,
    workloads_by_suite,
)
from repro.trace.store import (
    MemoryTraceStore,
    StoreEntry,
    TraceStore,
    trace_key,
    trace_memo,
)
from repro.trace.synthetic import build_trace, generate_records

__all__ = [
    "AccessPattern",
    "CACHE_FRIENDLY",
    "CORE_BOUND",
    "DRAM_BOUND",
    "FORMAT_VERSION",
    "LLC_BOUND",
    "MIXED",
    "MemoryTraceStore",
    "MixedPhasePattern",
    "PackedTrace",
    "PointerChasePattern",
    "RandomPattern",
    "SPEC_WORKLOADS",
    "SimpointWeight",
    "StencilPattern",
    "StoreEntry",
    "StreamPattern",
    "TraceRecord",
    "TraceStore",
    "WorkingSetPattern",
    "WorkloadSpec",
    "as_packed",
    "build_trace",
    "trace_key",
    "trace_memo",
    "class_balanced_mixes",
    "generate_records",
    "get_workload",
    "pair_coverage",
    "pairs_covered",
    "random_mixes",
    "read_trace",
    "reuse_distances",
    "suite_names",
    "uniform_weights",
    "weighted_metric",
    "weighted_metrics",
    "workloads_by_class",
    "workloads_by_suite",
    "write_trace",
]
