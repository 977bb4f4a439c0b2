"""Miss-rate curves via Mattson stack-distance analysis.

The paper's related work (Section VII-c) cites methods that "report
approximate miss rate curves can sum to approximate a shared curve for
contention analysis" (KPart, Whirlpool). This module provides that
substrate: single-pass LRU stack-distance profiling of an address stream,
the per-capacity miss-rate curve it implies, and the summed approximation of
a shared-cache curve — plus a helper to read the working-set knee off a
curve, used by workload characterisation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.trace.packed import PackedTrace

BLOCK = 64
#: Bucket for "colder than everything we track" (cold misses fall here too).
INFINITE = -1


def stack_distance_histogram(addresses: Iterable[int],
                             block_size: int = BLOCK,
                             max_depth: Optional[int] = None) -> Dict[int, int]:
    """LRU stack-distance histogram of a block-address stream.

    Returns ``{distance: count}`` with cold misses (and reuses deeper than
    ``max_depth``) under :data:`INFINITE`. O(n · d) with d bounded by
    ``max_depth`` — fine for the trace sizes this reproduction uses.
    """
    stack: List[int] = []
    histogram: Dict[int, int] = {}
    for address in addresses:
        block = address // block_size
        try:
            depth = stack.index(block)
        except ValueError:
            histogram[INFINITE] = histogram.get(INFINITE, 0) + 1
            stack.insert(0, block)
            if max_depth is not None and len(stack) > max_depth:
                stack.pop()
            continue
        histogram[depth] = histogram.get(depth, 0) + 1
        del stack[depth]
        stack.insert(0, block)
    return histogram


def miss_rate_curve(histogram: Dict[int, int],
                    capacities: Sequence[int]) -> Dict[int, float]:
    """Miss rate as a function of cache capacity (in blocks).

    A fully-associative LRU cache of ``c`` blocks hits every access whose
    stack distance is strictly below ``c``; everything else (including cold
    misses) misses. Returns ``{capacity: miss rate}``.
    """
    total = sum(histogram.values())
    if total == 0:
        raise ValueError("empty histogram")
    curve: Dict[int, float] = {}
    for capacity in capacities:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        hits = sum(count for distance, count in histogram.items()
                   if distance != INFINITE and distance < capacity)
        curve[capacity] = 1.0 - hits / total
    return curve


def trace_addresses(trace: PackedTrace) -> List[int]:
    """Demand memory addresses (loads and stores) of a trace, in order."""
    addresses: List[int] = []
    for record in trace.records:
        if record.load_addr is not None:
            addresses.append(record.load_addr)
        if record.store_addr is not None and record.store_addr != record.load_addr:
            addresses.append(record.store_addr)
    return addresses


def trace_mrc(trace: PackedTrace, capacities: Sequence[int],
              block_size: int = BLOCK,
              max_depth: Optional[int] = None) -> Dict[int, float]:
    """Miss-rate curve of one trace's demand stream."""
    histogram = stack_distance_histogram(trace_addresses(trace), block_size,
                                         max_depth)
    return miss_rate_curve(histogram, capacities)


def combined_mrc(curves: Sequence[Dict[int, float]],
                 access_weights: Sequence[float]) -> Dict[int, float]:
    """Approximate shared-cache curve from individual curves.

    The KPart-style approximation: at each total capacity, partition it
    among workloads in proportion to their access weights and combine the
    per-workload miss rates weighted by access share. Capacities must be
    common to all curves.
    """
    if len(curves) != len(access_weights):
        raise ValueError("one weight per curve required")
    if not curves:
        raise ValueError("need at least one curve")
    total_weight = sum(access_weights)
    if total_weight <= 0:
        raise ValueError("weights must have a positive sum")
    shares = [w / total_weight for w in access_weights]
    capacities = set(curves[0])
    for curve in curves[1:]:
        capacities &= set(curve)
    if not capacities:
        raise ValueError("curves share no capacities")
    combined: Dict[int, float] = {}
    for capacity in sorted(capacities):
        rate = 0.0
        for curve, share in zip(curves, shares):
            slice_capacity = _nearest_capacity(curve, int(capacity * share))
            rate += share * curve[slice_capacity]
        combined[capacity] = rate
    return combined


def _nearest_capacity(curve: Dict[int, float], wanted: int) -> int:
    """Closest capacity key at or below ``wanted`` (or the smallest key)."""
    keys = sorted(curve)
    best = keys[0]
    for key in keys:
        if key <= wanted:
            best = key
        else:
            break
    return best


def working_set_knee(curve: Dict[int, float], threshold: float = 0.05) -> int:
    """Smallest capacity whose miss rate is within ``threshold`` of the
    curve's floor — the effective working-set size in blocks."""
    if not curve:
        raise ValueError("empty curve")
    floor = min(curve.values())
    for capacity in sorted(curve):
        if curve[capacity] <= floor + threshold:
            return capacity
    return max(curve)
